//! [`ChaosProxy`]: a fault-injecting TCP proxy for the wire tests.

use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A fault-injecting TCP proxy between a
/// [`ProcessFabric`](super::ProcessFabric) client and a
/// daemon: forwards byte streams until told to cut mid-frame
/// ([`ChaosProxy::cut_after_down_bytes`]), sever ([`ChaosProxy::cut_now`]),
/// or stall the daemon→client direction ([`ChaosProxy::set_stall_down`])
/// — the half-open connection where the peer is silent but the socket
/// never errors.
pub struct ChaosProxy {
    addr: SocketAddr,
    ctl: Arc<ProxyCtl>,
    join: Option<JoinHandle<()>>,
}

struct ProxyCtl {
    upstream: SocketAddr,
    /// Remaining daemon→client bytes before an abrupt cut; -1 = no cut
    /// armed. One-shot: disarms itself after firing.
    cut_down_budget: AtomicI64,
    stall_down: AtomicBool,
    closed: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `upstream`. Serves one client connection at a time (matching the
    /// daemon) and re-accepts after every cut, so reconnects flow
    /// through.
    pub fn start(upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ctl = Arc::new(ProxyCtl {
            upstream,
            cut_down_budget: AtomicI64::new(-1),
            stall_down: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let ctl2 = Arc::clone(&ctl);
        let join = std::thread::Builder::new()
            .name("chaos-proxy".to_string())
            .spawn(move || proxy_accept_loop(&listener, &ctl2))?;
        Ok(ChaosProxy {
            addr,
            ctl,
            join: Some(join),
        })
    }

    /// The proxy's listen address (point the fabric's connect mode here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs the current connection immediately, both directions.
    pub fn cut_now(&self) {
        for s in self.ctl.conns.lock().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Arms a one-shot cut after `n` more daemon→client bytes — lands
    /// mid-frame for any frame longer than `n`.
    pub fn cut_after_down_bytes(&self, n: u64) {
        self.ctl
            .cut_down_budget
            .store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Stalls (or resumes) the daemon→client direction while leaving the
    /// sockets open: acks stop arriving, nothing errors — the client
    /// must conclude death from silence alone.
    pub fn set_stall_down(&self, stall: bool) {
        self.ctl.stall_down.store(stall, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.ctl.closed.store(true, Ordering::SeqCst);
        self.cut_now();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn proxy_accept_loop(listener: &TcpListener, ctl: &Arc<ProxyCtl>) {
    while !ctl.closed.load(Ordering::SeqCst) {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => return,
        };
        let upstream = match TcpStream::connect_timeout(&ctl.upstream, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(_) => continue,
        };
        client.set_nodelay(true).ok();
        upstream.set_nodelay(true).ok();
        // Short read timeouts let the pumps notice `closed` and cuts.
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        upstream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        {
            let mut conns = ctl.conns.lock();
            conns.clear();
            if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                conns.push(c);
                conns.push(u);
            }
        }
        let up = {
            let (mut src, mut dst) = match (client.try_clone(), upstream.try_clone()) {
                (Ok(s), Ok(d)) => (s, d),
                _ => continue,
            };
            let ctl = Arc::clone(ctl);
            std::thread::spawn(move || proxy_pump(&mut src, &mut dst, &ctl, false))
        };
        let down = {
            let (mut src, mut dst) = (upstream, client);
            let ctl = Arc::clone(ctl);
            std::thread::spawn(move || proxy_pump(&mut src, &mut dst, &ctl, true))
        };
        let _ = up.join();
        let _ = down.join();
        ctl.conns.lock().clear();
    }
}

/// Copies `src` → `dst` in small chunks, applying stall/cut controls when
/// pumping the daemon→client (`down`) direction. Either side failing, or
/// the proxy closing, ends the pump and shuts both sides down.
fn proxy_pump(src: &mut TcpStream, dst: &mut TcpStream, ctl: &ProxyCtl, down: bool) {
    let mut buf = [0u8; 256];
    while !ctl.closed.load(Ordering::SeqCst) {
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        };
        // Stalled, the daemon→client direction holds what it has read.
        while down && ctl.stall_down.load(Ordering::SeqCst) && !ctl.closed.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        // An armed cut lets its budget through, then severs and disarms.
        let budget = if down {
            ctl.cut_down_budget.load(Ordering::SeqCst)
        } else {
            -1
        };
        let allow = if budget >= 0 {
            n.min(budget as usize)
        } else {
            n
        };
        if dst.write_all(&buf[..allow]).is_err() {
            break;
        }
        if budget >= 0 {
            let left = if n >= budget as usize {
                -1
            } else {
                budget - n as i64
            };
            ctl.cut_down_budget.store(left, Ordering::SeqCst);
            if left < 0 {
                break;
            }
        }
    }
    let _ = dst.shutdown(Shutdown::Both);
    let _ = src.shutdown(Shutdown::Both);
}
