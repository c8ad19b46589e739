//! The client half of the std-net driver: the [`ProcessFabric`], one
//! supervisor thread per endpoint running the supervisor machine
//! ([`super::supervisor`]) over a channel of events, a reader thread per
//! connection, the child daemon's spawn and kill, and the socket counters.

use super::supervisor::Supervisor;
use super::{Ctr, EpShared, LISTENING_PREFIX, SHUT_DOWN};
use crate::fabric::{Completion, Fabric, FabricTiming, JobSpec, ProbeState};
use crate::proto::{Frame, FrameReader};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most commands and inbound frames a supervisor handles between two
/// checks of its heartbeat/liveness timers.
const DRAIN_BUDGET: usize = 512;

/// How long a supervisor with nothing left to connect to blocks between
/// looks at its channel.
const IDLE_WAIT: Duration = Duration::from_secs(3600);

/// How the fabric reaches one endpoint.
#[derive(Clone, Debug)]
pub enum EndpointMode {
    /// Spawn `command` as a child process (argv prefix; the fabric
    /// appends `--name/--workers/--listen/--generation`), parse the
    /// `LISTENING` line, connect. The supervisor respawns it — with an
    /// incremented generation — if it dies.
    Spawn {
        /// Program and leading arguments (e.g. the `unifaas-endpointd`
        /// path plus `--fault` rules).
        command: Vec<String>,
    },
    /// Connect to an already-running daemon (or a
    /// [`ChaosProxy`](super::ChaosProxy) in front of one).
    Connect {
        /// `host:port` of the daemon.
        addr: String,
    },
}

/// One endpoint's identity and reachability.
#[derive(Clone, Debug)]
pub struct ProcessEndpointSpec {
    /// Endpoint name (also the spawned daemon's `--name`).
    pub name: String,
    /// Worker count (also the spawned daemon's `--workers`; in connect
    /// mode this is the placement-capacity assumption until HELLO says
    /// otherwise).
    pub workers: usize,
    /// Spawn or connect.
    pub mode: EndpointMode,
}

/// Fabric-wide knobs.
#[derive(Clone, Debug)]
pub struct ProcessFabricConfig {
    /// Heartbeat/liveness/backoff intervals (validated at construction).
    pub timing: FabricTiming,
    /// Seed for the per-endpoint backoff-jitter RNG streams.
    pub seed: u64,
    /// Whether a dead spawned child is respawned (generation + 1). With
    /// this off a killed endpoint stays dead — useful for asserting
    /// permanent-loss behaviour.
    pub respawn: bool,
    /// Subscribe to daemon telemetry (TELEMETRY_SUB after every HELLO)
    /// and buffer the returned trace batches for
    /// [`ProcessFabric::telemetry`]. A telemetry-off run exchanges no
    /// TELEMETRY frames at all and its results are bit-identical to
    /// pre-observability builds.
    pub telemetry: bool,
}

impl Default for ProcessFabricConfig {
    fn default() -> Self {
        ProcessFabricConfig {
            timing: FabricTiming::default(),
            seed: 1,
            respawn: true,
            telemetry: false,
        }
    }
}

/// A supervisor connection's socket, counting reads or writes and bytes
/// where they happen: a large payload's own write, and inbound bytes that
/// later fail to decode, included.
struct Counted {
    inner: TcpStream,
    shared: Arc<EpShared>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.shared.add(Ctr::SocketReads, 1);
        self.shared.add(Ctr::BytesRecv, n as u64);
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.shared.add(Ctr::SocketWrites, 1);
        self.shared.add(Ctr::BytesSent, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Everything a supervisor thread reacts to, merged into one channel so
/// a single `recv_timeout` drives commands, inbound frames, and timer
/// deadlines alike.
pub(super) enum Ev {
    Stage(u64, Arc<Vec<u8>>),
    Submit(JobSpec, Completion),
    /// The frames one socket read brought in, from the reader of
    /// connection-epoch `.0`.
    Frames(u64, Vec<Frame>),
    /// The reader of connection-epoch `.0` hit EOF/error.
    ReaderClosed(u64),
    /// SIGKILL the child (chaos hook).
    Kill,
    Shutdown,
}

/// One endpoint's supervisor thread: the machine, and the socket, child
/// and channel it may not touch.
struct Driver {
    sup: Supervisor,
    spec: ProcessEndpointSpec,
    timing: FabricTiming,
    respawn: bool,
    shared: Arc<EpShared>,
    rx: Receiver<Ev>,
    self_tx: Sender<Ev>,
    /// The spawned daemon and the address it announced.
    child: Option<(Child, SocketAddr)>,
    spawned_once: bool,
    /// The machine's current connection: its epoch and write half.
    conn: Option<(u64, Counted)>,
}

impl Driver {
    fn run(mut self) {
        loop {
            // One instant for the turn, taken before a connect: a new
            // connection's first heartbeat then waits for the next turn,
            // behind the work already queued for it.
            let now = Instant::now();
            if self.sup.connect_due(now) {
                self.try_connect();
            }
            if self.sup.tick(now) {
                self.flush();
            }
            self.settle();
            // Block only when idle, and flush first: no frame ever waits
            // in the buffer for a later frame or a timer.
            let mut next = match self.rx.try_recv() {
                Ok(ev) => Some(ev),
                Err(TryRecvError::Disconnected) => return self.shutdown(),
                Err(TryRecvError::Empty) => {
                    self.flush();
                    self.settle();
                    let now = Instant::now();
                    let wait = self
                        .sup
                        .next_deadline()
                        .map_or(IDLE_WAIT, |d| d.saturating_duration_since(now));
                    match self.rx.recv_timeout(wait.max(Duration::from_millis(1))) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return self.shutdown(),
                    }
                }
            };
            // Handle what is already queued without flushing in between,
            // so a burst shares socket writes; the budget returns to the
            // timers above on schedule however long the backlog is.
            let mut budget = DRAIN_BUDGET;
            while let Some(ev) = next {
                budget = budget.saturating_sub(match &ev {
                    Ev::Shutdown => return self.shutdown(),
                    Ev::Frames(_, frames) => frames.len(),
                    _ => 1,
                });
                self.handle(ev);
                next = if budget > 0 {
                    self.rx.try_recv().ok()
                } else {
                    None
                };
            }
        }
    }

    /// Hands `ev` to the machine. Only the events the machine times read
    /// the clock: a stage or a submit does not.
    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Stage(key, bytes) => self.sup.stage(key, bytes),
            Ev::Submit(job, done) => self.sup.submit(job, done),
            Ev::Frames(epoch, frames) => self.sup.on_frames(epoch, frames, Instant::now()),
            Ev::ReaderClosed(epoch) => self.sup.reader_closed(epoch, Instant::now()),
            Ev::Kill => self.kill_child(),
            Ev::Shutdown => unreachable!("handled in run()"),
        }
        if self.sup.out.wire.due() {
            self.flush();
        }
        self.settle();
    }

    /// Writes everything the machine buffered. A failed write loses the
    /// connection, which fails every outstanding attempt — those whose
    /// DISPATCH was still in the buffer included.
    fn flush(&mut self) {
        let Some((_, stream)) = &mut self.conn else {
            return;
        };
        if self.sup.out.wire.write_out(stream).is_err() {
            self.sup.conn_lost("socket write failed", Instant::now());
        }
    }

    /// Does what the machine left to do: closes a socket it gave up,
    /// fires completions, records measurements.
    fn settle(&mut self) {
        if self.conn.as_ref().map(|c| c.0) != self.sup.epoch() {
            if let Some((_, c)) = self.conn.take() {
                let _ = c.inner.shutdown(Shutdown::Both);
            }
        }
        let out = &mut self.sup.out;
        for (done, outcome) in out.resolved.drain(..) {
            done(outcome);
        }
        for (generation, sample) in out.clocks.drain(..) {
            let rtt = sample.rtt_us() as f64 / 1e6;
            self.shared.rtt_hist.lock().observe(rtt);
            let mut store = self.shared.telemetry.lock();
            store.clocks.entry(generation).or_default().observe(sample);
        }
        for batch in out.telemetry.drain(..) {
            self.shared.telemetry.lock().store(batch);
        }
    }

    fn try_connect(&mut self) {
        let Some(addr) = self.ensure_target() else {
            return self.sup.connect_failed(Instant::now());
        };
        let connected = TcpStream::connect_timeout(&addr, self.timing.connect_timeout)
            .and_then(|stream| Ok((stream.try_clone()?, stream)));
        let (read_half, stream) = match connected {
            Ok(halves) => halves,
            Err(_) => return self.sup.connect_failed(Instant::now()),
        };
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(self.timing.down_after)).ok();
        let epoch = self.sup.connected(Instant::now());
        let tx = self.self_tx.clone();
        let mut reader = FrameReader::new(Counted {
            inner: read_half,
            shared: Arc::clone(&self.shared),
        });
        let shared = Arc::clone(&self.shared);
        let mut last_len = 0;
        std::thread::Builder::new()
            .name(format!("{}-reader-{epoch}", self.spec.name))
            .spawn(move || loop {
                // Each read's `Vec` goes to the supervisor whole; the next
                // is sized like the last, so it need not regrow from empty.
                let mut frames = Vec::with_capacity(last_len);
                let read = reader.read_batch(&mut frames);
                last_len = frames.len();
                shared.add(Ctr::FramesRecv, frames.len() as u64);
                if !frames.is_empty() && tx.send(Ev::Frames(epoch, frames)).is_err() {
                    return;
                }
                if read.is_err() {
                    let _ = tx.send(Ev::ReaderClosed(epoch));
                    return;
                }
            })
            .expect("spawn reader");
        self.conn = Some((
            epoch,
            Counted {
                inner: stream,
                shared: Arc::clone(&self.shared),
            },
        ));
    }

    /// Resolves the address to connect to, spawning/respawning the child
    /// if this endpoint owns one and it is not running.
    fn ensure_target(&mut self) -> Option<SocketAddr> {
        let command = match &self.spec.mode {
            EndpointMode::Connect { addr } => return addr.to_socket_addrs().ok()?.next(),
            EndpointMode::Spawn { command } => command.clone(),
        };
        if let Some((child, addr)) = &mut self.child {
            if matches!(child.try_wait(), Ok(None)) {
                return Some(*addr);
            }
        }
        if self.spawned_once && !self.respawn {
            self.sup.give_up();
            return None;
        }
        let generation = self.shared.get(Ctr::Respawns) + u64::from(self.spawned_once);
        let spawned = spawn_endpointd(&command, &self.spec, generation, &self.timing);
        let (child, addr) = spawned.ok()?;
        if self.spawned_once {
            self.shared.add(Ctr::Respawns, 1);
        }
        self.spawned_once = true;
        self.child = Some((child, addr));
        Some(addr)
    }

    /// SIGKILL the child — the chaos hook. `Child::kill` is SIGKILL on
    /// unix: no cleanup, no flush, the real crash.
    fn kill_child(&mut self) {
        if let Some((mut ch, _)) = self.child.take() {
            let _ = ch.kill();
            let _ = ch.wait(); // reap
        }
    }

    fn shutdown(mut self) {
        if let Some(epoch) = self.sup.drain() {
            self.flush();
            // Give the daemon a moment to ack so it exits cleanly;
            // results that race in still resolve normally.
            let deadline = Instant::now() + Duration::from_millis(500);
            while self.sup.epoch() == Some(epoch) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match self.rx.recv_timeout(left) {
                    Ok(Ev::Frames(e, frames)) => {
                        let acked = e == epoch
                            && frames.iter().any(|f| matches!(f, Frame::DrainAck { .. }));
                        let now = Instant::now();
                        self.sup.on_frames(e, frames, now);
                        self.settle();
                        if acked {
                            break;
                        }
                    }
                    Ok(Ev::ReaderClosed(e)) if e == epoch => break,
                    Ok(ev) => refuse(ev),
                    Err(_) => break,
                }
            }
        }
        self.sup.close();
        self.settle();
        if let Some((mut ch, _)) = self.child.take() {
            // Post-drain the daemon exits on its own; give it a beat,
            // then make sure.
            let deadline = Instant::now() + Duration::from_secs(2);
            while matches!(ch.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = ch.kill();
            let _ = ch.wait();
        }
        // Whatever queued up behind the shutdown: a submit among it must
        // still resolve.
        while let Ok(ev) = self.rx.try_recv() {
            refuse(ev);
        }
    }
}

/// Answers an event that reaches a supervisor after shutdown began: a
/// submit fails (its completion must fire), anything else is dropped.
fn refuse(ev: Ev) {
    if let Ev::Submit(_, done) = ev {
        done(Err(SHUT_DOWN.to_string()));
    }
}

/// Spawns `unifaas-endpointd` (or whatever `command` names) and parses
/// its `LISTENING <addr>` announcement. The child's stdout is a socket, so
/// the wait for the line has a bound: a child that has not announced
/// within `timing.connect_timeout` — hung, or never going to — is killed
/// and reaped, and the supervisor backs off as from any failed connect.
fn spawn_endpointd(
    command: &[String],
    spec: &ProcessEndpointSpec,
    generation: u64,
    timing: &FabricTiming,
) -> std::io::Result<(Child, SocketAddr)> {
    let Some((program, args)) = command.split_first() else {
        return Err(std::io::Error::other("empty spawn command"));
    };
    let (stdout, theirs) = UnixStream::pair()?;
    let mut child = Command::new(program)
        .args(args)
        .arg("--name")
        .arg(&spec.name)
        .arg("--workers")
        .arg(spec.workers.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--generation")
        .arg(generation.to_string())
        .stdout(OwnedFd::from(theirs))
        .stderr(Stdio::inherit())
        .spawn()?;
    let deadline = Instant::now() + timing.connect_timeout;
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let announced = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stdout.get_ref().set_read_timeout(Some(left)).is_err() {
            break Err("daemon did not announce in time");
        }
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) => break Err("daemon exited before announcing"),
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix(LISTENING_PREFIX) {
                    break rest.parse().map_err(|_| "bad LISTENING line");
                }
            }
            Err(_) => break Err("daemon did not announce in time"),
        }
    };
    match announced {
        Ok(addr) => Ok((child, addr)),
        Err(why) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other(why))
        }
    }
}

/// The process-isolated fabric: one supervisor thread per endpoint, child
/// daemons (or remote addresses) behind it, the [`Fabric`] trait in front.
pub struct ProcessFabric {
    pub(super) labels: Vec<String>,
    pub(super) shared: Vec<Arc<EpShared>>,
    pub(super) txs: Vec<Sender<Ev>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
    clock0: Instant,
}

impl ProcessFabric {
    /// Starts one supervisor per endpoint. Spawn-mode children launch
    /// (and connect) asynchronously — use [`ProcessFabric::wait_probe`]
    /// to block until an endpoint is up.
    pub fn new(specs: Vec<ProcessEndpointSpec>, cfg: ProcessFabricConfig) -> Self {
        cfg.timing.validate().expect("invalid fabric timing");
        assert!(!specs.is_empty(), "need at least one endpoint");
        let clock0 = Instant::now();
        let mut fabric = ProcessFabric {
            labels: Vec::new(),
            shared: Vec::new(),
            txs: Vec::new(),
            joins: Mutex::default(),
            down: AtomicBool::new(false),
            clock0,
        };
        for (i, spec) in specs.into_iter().enumerate() {
            let (tx, rx) = unbounded::<Ev>();
            let shared = Arc::new(EpShared::new(spec.workers));
            let seed = cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            let sup = Supervisor::new(
                &spec.name,
                cfg.timing,
                cfg.telemetry,
                seed,
                clock0,
                Arc::clone(&shared),
            );
            let driver = Driver {
                sup,
                spec: spec.clone(),
                timing: cfg.timing,
                respawn: cfg.respawn,
                shared: Arc::clone(&shared),
                rx,
                self_tx: tx.clone(),
                child: None,
                spawned_once: false,
                conn: None,
            };
            fabric.joins.lock().push(
                std::thread::Builder::new()
                    .name(format!("{}-supervisor", spec.name))
                    .spawn(move || driver.run())
                    .expect("spawn supervisor"),
            );
            fabric.labels.push(spec.name);
            fabric.shared.push(shared);
            fabric.txs.push(tx);
        }
        fabric
    }

    /// Blocks until `ep`'s probe reads `want`, up to `timeout`.
    pub fn wait_probe(&self, ep: usize, want: ProbeState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.shared[ep].probe() == want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared[ep].probe() == want
    }

    /// SIGKILLs `ep`'s child daemon (spawn mode only; a no-op otherwise).
    /// The supervisor notices via missed heartbeats / connection reset,
    /// fails over in-flight work, and respawns if configured to.
    pub fn kill(&self, ep: usize) {
        let _ = self.txs[ep].send(Ev::Kill);
    }

    /// The spawn generation `ep` last announced in HELLO.
    pub fn generation(&self, ep: usize) -> u64 {
        self.shared[ep].generation()
    }
}

impl Fabric for ProcessFabric {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn clock_epoch(&self) -> Instant {
        self.clock0
    }

    fn n_workers(&self, ep: usize) -> usize {
        self.shared[ep].workers.load(Ordering::SeqCst) as usize
    }

    fn busy_workers(&self, ep: usize) -> usize {
        self.shared[ep].busy.load(Ordering::SeqCst) as usize
    }

    fn probe(&self, ep: usize) -> ProbeState {
        self.shared[ep].probe()
    }

    fn stage(&self, ep: usize, key: u64, bytes: &Arc<Vec<u8>>) {
        let _ = self.txs[ep].send(Ev::Stage(key, Arc::clone(bytes)));
    }

    fn submit(&self, ep: usize, job: JobSpec, done: Completion) {
        if self.down.load(Ordering::SeqCst) {
            done(Err(SHUT_DOWN.to_string()));
            return;
        }
        if let Err(e) = self.txs[ep].send(Ev::Submit(job, done)) {
            if let Ev::Submit(_, done) = e.0 {
                done(Err(format!("endpoint {} supervisor gone", self.labels[ep])));
            }
        }
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        for tx in &self.txs {
            let _ = tx.send(Ev::Shutdown);
        }
        for j in self.joins.lock().drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for ProcessFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}
