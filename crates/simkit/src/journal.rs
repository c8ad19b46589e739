//! Deterministic run journal: a chunked, length-prefixed binary log of every
//! delivered event.
//!
//! The journal is the diagnosis layer behind the repo's determinism digests:
//! when two runs that must be bit-identical (calendar wheel vs. reference
//! heap, faulted replay) disagree, their digests only say *that* they
//! diverged. A journal records the full delivery stream
//! — virtual time, event kind, application ids, delivery sequence — so a
//! doctor can binary-search to the *first* divergent event and print it.
//!
//! Design points:
//!
//! * **Chunked with rolling digests.** Records are grouped into fixed-size
//!   chunks; each chunk stores the rolling FNV-1a digest of the *entire
//!   record stream up to and including that chunk* (the same FNV constants
//!   as the determinism digests). Because the digest is a prefix digest,
//!   two journals of the same run agree on every chunk digest up to the
//!   first divergent event — which is what makes binary search over chunk
//!   metadata sound.
//! * **Self-validating.** Every chunk carries a checksum over its own
//!   bytes, and a clean close writes a checksummed trailer with the total
//!   record count and final digest. A reader encountering a truncated or
//!   corrupt chunk (process abort mid-write) stops there and reports an
//!   unclean close instead of mis-parsing garbage; the writer's `Drop`
//!   flushes buffered records on panic so unwinding loses nothing.
//! * **Cheap on the hot path.** `append` encodes 34 bytes into a
//!   pre-reserved buffer and folds the digest — no allocation, no syscall.
//!   One `write` syscall happens per chunk (default 4096 records). I/O
//!   errors are sticky and surfaced at [`JournalWriter::finish`], so the
//!   engine's delivery loop never handles a `Result`.
//!
//! The journal is app-agnostic: `kind`/`a`/`b` are opaque to this module.
//! The application supplies an encoder (`fn(&E) -> EventCode`) when
//! installing a journal on an engine, and may interleave *note* records
//! (e.g. scheduler decisions) through `Engine::journal_note`.

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// FNV-1a offset basis — matches the determinism-digest constants.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime — matches the determinism-digest constants.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// File magic: identifies a v1 journal.
const FILE_MAGIC: &[u8; 8] = b"UFJRNL01";
/// Chunk marker ("CHNK" little-endian).
const CHUNK_MAGIC: u32 = 0x4b4e_4843;
/// Trailer marker ("TRLR" little-endian).
const TRAILER_MAGIC: u32 = 0x524c_5254;

/// Encoded size of one record in bytes.
pub const RECORD_BYTES: usize = 34;
/// Default number of records per chunk.
pub const DEFAULT_CHUNK_RECORDS: u32 = 4096;

/// Bit set on `kind` for application note records (scheduler decisions and
/// similar annotations interleaved with delivered events). The journal
/// itself treats notes like any other record; the flag only exists so
/// consumers can tell delivery records from annotations.
pub const NOTE_KIND_FLAG: u16 = 0x8000;

#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An application-encoded event: `kind` discriminates the event type, `a`
/// and `b` carry the ids the application considers identifying (task,
/// endpoint, transfer...). Produced by the encoder the application installs
/// alongside a [`JournalWriter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventCode {
    /// Application-defined event discriminant. Values with
    /// [`NOTE_KIND_FLAG`] set are annotation records, not deliveries.
    pub kind: u16,
    /// First application id (conventionally the task or transfer id).
    pub a: u64,
    /// Second application id (conventionally the endpoint id or an
    /// auxiliary payload).
    pub b: u64,
}

/// One decoded journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Virtual time of delivery, in microseconds.
    pub at_us: u64,
    /// Delivery sequence number (1-based count of delivered events; note
    /// records share the sequence number of the event being handled).
    pub seq: u64,
    /// Application event discriminant (see [`EventCode::kind`]).
    pub kind: u16,
    /// First application id.
    pub a: u64,
    /// Second application id.
    pub b: u64,
}

impl JournalRecord {
    /// True if this is an application note (annotation), not a delivery.
    pub fn is_note(&self) -> bool {
        self.kind & NOTE_KIND_FLAG != 0
    }

    #[inline]
    fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.at_us.to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..18].copy_from_slice(&self.kind.to_le_bytes());
        out[18..26].copy_from_slice(&self.a.to_le_bytes());
        out[26..34].copy_from_slice(&self.b.to_le_bytes());
        out
    }

    #[inline]
    fn decode(bytes: &[u8]) -> JournalRecord {
        JournalRecord {
            at_us: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            seq: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            kind: u16::from_le_bytes(bytes[16..18].try_into().unwrap()),
            a: u64::from_le_bytes(bytes[18..26].try_into().unwrap()),
            b: u64::from_le_bytes(bytes[26..34].try_into().unwrap()),
        }
    }
}

/// Summary of a finished journal, returned by [`JournalWriter::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalSummary {
    /// Total records written (deliveries plus notes).
    pub records: u64,
    /// Number of chunks written.
    pub chunks: u64,
    /// Final rolling digest over the whole record stream.
    pub digest: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming journal writer.
///
/// `append` is infallible at the call site: I/O errors are latched and
/// returned from [`JournalWriter::finish`]. Dropping a writer without
/// calling `finish` (panic unwinding, early exit) flushes the buffered
/// partial chunk and syncs the file but writes **no trailer**, which a
/// [`Journal`] reader reports as an unclean close.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// Payload bytes of the chunk being built (records only).
    buf: Vec<u8>,
    chunk_records: u32,
    in_chunk: u32,
    digest: u64,
    records: u64,
    chunks: u64,
    error: Option<io::Error>,
    finished: bool,
}

impl JournalWriter {
    /// Creates a journal at `path` (truncating any existing file) with the
    /// default chunk size.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JournalWriter> {
        Self::create_with_chunk_records(path, DEFAULT_CHUNK_RECORDS)
    }

    /// Creates a journal with `chunk_records` records per chunk. Smaller
    /// chunks localize divergence more tightly at the cost of per-chunk
    /// overhead; the doctor requires both journals to use the same value
    /// for digest binary search (it falls back to a linear scan otherwise).
    pub fn create_with_chunk_records<P: AsRef<Path>>(
        path: P,
        chunk_records: u32,
    ) -> io::Result<JournalWriter> {
        assert!(chunk_records > 0, "chunk_records must be positive");
        let mut file = File::create(path)?;
        let mut header = [0u8; 16];
        header[0..8].copy_from_slice(FILE_MAGIC);
        header[8..12].copy_from_slice(&chunk_records.to_le_bytes());
        header[12..16].copy_from_slice(&(RECORD_BYTES as u32).to_le_bytes());
        file.write_all(&header)?;
        Ok(JournalWriter {
            file,
            buf: Vec::with_capacity(chunk_records as usize * RECORD_BYTES),
            chunk_records,
            in_chunk: 0,
            digest: FNV_OFFSET,
            records: 0,
            chunks: 0,
            error: None,
            finished: false,
        })
    }

    /// Appends one record. Never fails at the call site; a latched I/O
    /// error turns subsequent appends into no-ops and is returned from
    /// [`JournalWriter::finish`].
    #[inline]
    pub fn append(&mut self, at_us: u64, seq: u64, kind: u16, a: u64, b: u64) {
        if self.error.is_some() {
            return;
        }
        let rec = JournalRecord {
            at_us,
            seq,
            kind,
            a,
            b,
        };
        let bytes = rec.encode();
        self.digest = fnv1a(self.digest, &bytes);
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        self.in_chunk += 1;
        if self.in_chunk == self.chunk_records {
            self.flush_chunk();
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current rolling digest over everything appended so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn flush_chunk(&mut self) {
        if self.in_chunk == 0 || self.error.is_some() {
            return;
        }
        let mut head = [0u8; 8];
        head[0..4].copy_from_slice(&CHUNK_MAGIC.to_le_bytes());
        head[4..8].copy_from_slice(&self.in_chunk.to_le_bytes());
        let digest_bytes = self.digest.to_le_bytes();
        let mut sum = fnv1a(FNV_OFFSET, &head);
        sum = fnv1a(sum, &self.buf);
        sum = fnv1a(sum, &digest_bytes);
        let mut tail = [0u8; 16];
        tail[0..8].copy_from_slice(&digest_bytes);
        tail[8..16].copy_from_slice(&sum.to_le_bytes());
        let res = self
            .file
            .write_all(&head)
            .and_then(|()| self.file.write_all(&self.buf))
            .and_then(|()| self.file.write_all(&tail));
        if let Err(e) = res {
            self.error = Some(e);
        }
        self.buf.clear();
        self.in_chunk = 0;
        self.chunks += 1;
    }

    /// Flushes the partial final chunk, writes the checksummed trailer, and
    /// fsyncs. Returns the journal summary, or the first I/O error
    /// encountered anywhere during the write.
    pub fn finish(mut self) -> io::Result<JournalSummary> {
        self.flush_chunk();
        if let Some(e) = self.error.take() {
            self.finished = true;
            return Err(e);
        }
        let mut trailer = [0u8; 32];
        trailer[0..4].copy_from_slice(&TRAILER_MAGIC.to_le_bytes());
        // trailer[4..8] reserved (zero).
        trailer[8..16].copy_from_slice(&self.records.to_le_bytes());
        trailer[16..24].copy_from_slice(&self.digest.to_le_bytes());
        let sum = fnv1a(FNV_OFFSET, &trailer[0..24]);
        trailer[24..32].copy_from_slice(&sum.to_le_bytes());
        self.file.write_all(&trailer)?;
        self.file.sync_all()?;
        self.finished = true;
        Ok(JournalSummary {
            records: self.records,
            chunks: self.chunks,
            digest: self.digest,
        })
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // Unclean close (panic unwinding, early return): persist everything
        // buffered as a complete, checksummed chunk and sync, but write no
        // trailer — the reader reports the journal as not cleanly closed.
        self.flush_chunk();
        let _ = self.file.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Metadata for one validated chunk.
#[derive(Clone, Copy, Debug)]
pub struct ChunkMeta {
    /// Records in this chunk.
    pub records: u32,
    /// Global index of the chunk's first record.
    pub first_index: u64,
    /// Rolling prefix digest after the last record of this chunk.
    pub digest: u64,
    /// Byte offset of the chunk's payload within the file.
    offset: usize,
}

/// A parsed, validated journal.
///
/// Opening validates every chunk checksum *and* recomputes the rolling
/// digest chain from the records themselves; parsing stops at the first
/// truncated or corrupt chunk (the partial chunk's records are skipped,
/// never mis-parsed) and at a valid trailer. [`Journal::clean_close`]
/// distinguishes a cleanly finished journal from one cut short by a crash.
#[derive(Clone, Debug)]
pub struct Journal {
    data: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    chunk_records: u32,
    total_records: u64,
    final_digest: u64,
    clean: bool,
}

impl Journal {
    /// Opens and validates a journal file.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Journal> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Self::parse(data)
    }

    fn parse(data: Vec<u8>) -> io::Result<Journal> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if data.len() < 16 || &data[0..8] != FILE_MAGIC {
            return Err(bad("not a journal file (bad magic)"));
        }
        let chunk_records = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let record_bytes = u32::from_le_bytes(data[12..16].try_into().unwrap());
        if record_bytes as usize != RECORD_BYTES || chunk_records == 0 {
            return Err(bad("unsupported journal layout"));
        }
        let mut chunks: Vec<ChunkMeta> = Vec::new();
        let mut pos = 16usize;
        let mut total: u64 = 0;
        let mut rolling = FNV_OFFSET;
        let mut clean = false;
        loop {
            if pos + 8 > data.len() {
                break; // truncated mid-header: unclean close
            }
            let magic = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
            if magic == TRAILER_MAGIC {
                if pos + 32 > data.len() {
                    break; // truncated trailer
                }
                let body = &data[pos..pos + 24];
                let sum = u64::from_le_bytes(data[pos + 24..pos + 32].try_into().unwrap());
                if fnv1a(FNV_OFFSET, body) != sum {
                    break; // corrupt trailer
                }
                let t_records = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
                let t_digest = u64::from_le_bytes(data[pos + 16..pos + 24].try_into().unwrap());
                if t_records != total || t_digest != rolling {
                    break; // trailer disagrees with validated chunks
                }
                clean = true;
                break;
            }
            if magic != CHUNK_MAGIC {
                break; // garbage where a chunk should start
            }
            let n = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            if n == 0 || n > chunk_records {
                break;
            }
            let payload_len = n as usize * RECORD_BYTES;
            let chunk_end = pos + 8 + payload_len + 16;
            if chunk_end > data.len() {
                break; // truncated chunk (process died mid-write)
            }
            let payload = &data[pos + 8..pos + 8 + payload_len];
            let digest = u64::from_le_bytes(
                data[pos + 8 + payload_len..pos + 16 + payload_len]
                    .try_into()
                    .unwrap(),
            );
            let sum =
                u64::from_le_bytes(data[pos + 16 + payload_len..chunk_end].try_into().unwrap());
            let mut check = fnv1a(FNV_OFFSET, &data[pos..pos + 8]);
            check = fnv1a(check, payload);
            check = fnv1a(check, &digest.to_le_bytes());
            if check != sum {
                break; // corrupt chunk
            }
            // Independently verify the rolling digest chain.
            rolling = fnv1a(rolling, payload);
            if rolling != digest {
                break; // digest chain broken: treat as corruption
            }
            chunks.push(ChunkMeta {
                records: n,
                first_index: total,
                digest,
                offset: pos + 8,
            });
            total += n as u64;
            pos = chunk_end;
        }
        Ok(Journal {
            data,
            chunks,
            chunk_records,
            total_records: total,
            final_digest: rolling,
            clean,
        })
    }

    /// Number of validated chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Metadata for chunk `i`.
    pub fn chunk(&self, i: usize) -> &ChunkMeta {
        &self.chunks[i]
    }

    /// Records-per-chunk the journal was written with.
    pub fn chunk_records(&self) -> u32 {
        self.chunk_records
    }

    /// Total validated records (deliveries plus notes).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Rolling digest over all validated records.
    pub fn final_digest(&self) -> u64 {
        self.final_digest
    }

    /// True if the journal ended with a valid trailer (the writer's
    /// `finish` ran); false if it was cut short by a crash or abort.
    pub fn clean_close(&self) -> bool {
        self.clean
    }

    /// Decodes the records of chunk `i`.
    pub fn chunk_records_vec(&self, i: usize) -> Vec<JournalRecord> {
        let meta = &self.chunks[i];
        let mut out = Vec::with_capacity(meta.records as usize);
        for r in 0..meta.records as usize {
            let start = meta.offset + r * RECORD_BYTES;
            out.push(JournalRecord::decode(
                &self.data[start..start + RECORD_BYTES],
            ));
        }
        out
    }

    /// Decodes record `index` (global, 0-based), or `None` past the end.
    pub fn record(&self, index: u64) -> Option<JournalRecord> {
        if index >= self.total_records {
            return None;
        }
        // Chunks have monotone first_index; binary search for the owner.
        let c = match self.chunks.binary_search_by(|m| m.first_index.cmp(&index)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let meta = &self.chunks[c];
        let within = (index - meta.first_index) as usize;
        let start = meta.offset + within * RECORD_BYTES;
        Some(JournalRecord::decode(
            &self.data[start..start + RECORD_BYTES],
        ))
    }

    /// Iterates over all validated records in order.
    pub fn iter(&self) -> impl Iterator<Item = JournalRecord> + '_ {
        self.chunks.iter().flat_map(move |meta| {
            (0..meta.records as usize).map(move |r| {
                let start = meta.offset + r * RECORD_BYTES;
                JournalRecord::decode(&self.data[start..start + RECORD_BYTES])
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("simkit-journal-{}-{}", std::process::id(), name));
        p
    }

    fn sample(n: u64) -> Vec<JournalRecord> {
        (0..n)
            .map(|i| JournalRecord {
                at_us: i * 1000,
                seq: i + 1,
                kind: (i % 5) as u16,
                a: i * 7,
                b: i * 13,
            })
            .collect()
    }

    fn write_all(path: &Path, recs: &[JournalRecord], chunk: u32) -> JournalSummary {
        let mut w = JournalWriter::create_with_chunk_records(path, chunk).unwrap();
        for r in recs {
            w.append(r.at_us, r.seq, r.kind, r.a, r.b);
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_and_chunking() {
        let path = tmp("roundtrip");
        let recs = sample(10);
        let summary = write_all(&path, &recs, 4);
        assert_eq!(summary.records, 10);
        assert_eq!(summary.chunks, 3); // 4 + 4 + 2

        let j = Journal::open(&path).unwrap();
        assert!(j.clean_close());
        assert_eq!(j.total_records(), 10);
        assert_eq!(j.chunk_count(), 3);
        assert_eq!(j.final_digest(), summary.digest);
        let read: Vec<JournalRecord> = j.iter().collect();
        assert_eq!(read, recs);
        assert_eq!(j.record(0), Some(recs[0]));
        assert_eq!(j.record(9), Some(recs[9]));
        assert_eq!(j.record(10), None);
        assert_eq!(j.chunk_records_vec(2), recs[8..10].to_vec());
        // Chunk digests form a strictly evolving prefix chain.
        assert_ne!(j.chunk(0).digest, j.chunk(1).digest);
        assert_eq!(j.chunk(2).digest, summary.digest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identical_streams_have_identical_digests() {
        let pa = tmp("dig-a");
        let pb = tmp("dig-b");
        let recs = sample(100);
        let sa = write_all(&pa, &recs, 16);
        let sb = write_all(&pb, &recs, 16);
        assert_eq!(sa.digest, sb.digest);
        // Prefix property: first 16 records determine chunk 0's digest.
        let ja = Journal::open(&pa).unwrap();
        let jb = Journal::open(&pb).unwrap();
        for i in 0..ja.chunk_count() {
            assert_eq!(ja.chunk(i).digest, jb.chunk(i).digest);
        }
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn truncated_final_chunk_is_skipped() {
        let path = tmp("truncated");
        write_all(&path, &sample(10), 4);
        // Cut into the middle of the last chunk + trailer region: the
        // partial chunk must be skipped, not mis-parsed.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 40).unwrap();
        drop(f);
        let j = Journal::open(&path).unwrap();
        assert!(!j.clean_close());
        assert_eq!(j.total_records(), 8); // the two complete chunks survive
        assert_eq!(j.iter().count(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_without_finish_flushes_but_marks_unclean() {
        let path = tmp("dropped");
        {
            let mut w = JournalWriter::create_with_chunk_records(&path, 64).unwrap();
            for r in sample(3) {
                w.append(r.at_us, r.seq, r.kind, r.a, r.b);
            }
            // Dropped without finish(): simulates panic unwinding.
        }
        let j = Journal::open(&path).unwrap();
        assert!(!j.clean_close());
        assert_eq!(j.total_records(), 3);
        assert_eq!(j.iter().collect::<Vec<_>>(), sample(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_chunk_stops_parsing() {
        let path = tmp("corrupt");
        write_all(&path, &sample(12), 4);
        // Flip a byte inside chunk 1's payload: chunk 0 stays valid, chunk
        // 1 (and everything after) is rejected.
        let mut bytes = std::fs::read(&path).unwrap();
        let chunk0_size = 8 + 4 * RECORD_BYTES + 16;
        let victim = 16 + chunk0_size + 8 + 5; // inside chunk 1 payload
        bytes[victim] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(!j.clean_close());
        assert_eq!(j.total_records(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_roundtrips() {
        let path = tmp("empty");
        let w = JournalWriter::create(&path).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.chunks, 0);
        let j = Journal::open(&path).unwrap();
        assert!(j.clean_close());
        assert_eq!(j.total_records(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_journal_files() {
        let path = tmp("not-a-journal");
        std::fs::write(&path, b"hello world, definitely not a journal").unwrap();
        assert!(Journal::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn note_flag_is_visible_to_consumers() {
        let path = tmp("notes");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(5, 1, 2, 10, 20);
        w.append(5, 1, NOTE_KIND_FLAG | 1, 10, 3);
        w.finish().unwrap();
        let j = Journal::open(&path).unwrap();
        let recs: Vec<JournalRecord> = j.iter().collect();
        assert!(!recs[0].is_note());
        assert!(recs[1].is_note());
        std::fs::remove_file(&path).ok();
    }
}
