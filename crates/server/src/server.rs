//! The TCP front end: accept loop, one handler thread per connection.
//!
//! Connections speak the line protocol of [`crate::proto`]; each handler
//! runs queries through the shared [`QueryService`], so concurrency across
//! clients is bounded by admission control, not by the socket layer. A
//! `SHUTDOWN` request (or [`ServerHandle::shutdown`]) closes the admission
//! gate — waking queued queries with an error — flips the stop flag, and
//! unblocks the accept loop with a self-connection; the accept thread then
//! joins every handler before exiting, so a joined server has no work in
//! flight.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::proto::{write_err, write_ok, Request};
use crate::service::QueryService;

/// A running server: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (port is concrete even when
    /// bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for stats or direct in-process queries).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Requests shutdown: closes admission, stops accepting, and wakes
    /// the accept loop. Does not wait — call [`join`](ServerHandle::join).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.service, &self.stop, self.addr);
    }

    /// Waits for the accept thread (and thus every handler) to finish.
    pub fn join(mut self) -> io::Result<()> {
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| io::Error::other("accept thread panicked"))?;
        }
        Ok(())
    }
}

fn trigger_shutdown(service: &QueryService, stop: &AtomicBool, addr: SocketAddr) {
    service.close();
    if !stop.swap(true, Ordering::SeqCst) {
        // Unblock the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(addr);
    }
}

/// Binds `addr` (use port 0 for an OS-assigned port) and serves until
/// shutdown. Returns as soon as the listener is live.
pub fn spawn<A: ToSocketAddrs>(service: Arc<QueryService>, addr: A) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let (service, stop) = (service.clone(), stop.clone());
        std::thread::spawn(move || accept_loop(listener, addr, service, stop))
    };
    Ok(ServerHandle {
        addr,
        service,
        stop,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let (service, stop) = (service.clone(), stop.clone());
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &service, &stop, addr);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serves one connection until the peer disconnects or shutdown. Every
/// request gets exactly one response; unparseable requests get `ERR` and
/// the connection stays up.
fn handle_connection(
    stream: TcpStream,
    service: &QueryService,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> io::Result<()> {
    // Responses are buffered here and flushed once per request, so Nagle
    // only delays: a batch's responses leave as several writes, and a
    // small one held behind an unacknowledged one waits for the peer's
    // delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // peer closed
        }
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line) {
            Err(e) => write_err(&mut writer, &e)?,
            Ok(Request::Ping) => writeln!(writer, "PONG")?,
            Ok(Request::Stats) => writeln!(writer, "STATS {}", service.stats_json())?,
            Ok(Request::Shutdown) => {
                writeln!(writer, "BYE")?;
                writer.flush()?;
                trigger_shutdown(service, stop, addr);
                return Ok(());
            }
            Ok(Request::Query { path, raw, budget }) => match service.execute(&path, raw, budget) {
                Ok(out) => write_ok(&mut writer, &out.codes)?,
                Err(e) => write_err(&mut writer, &e.to_string())?,
            },
            Ok(Request::QueryBatch { count, raw, budget }) => {
                // The header promised `count` path lines; read them all
                // before answering anything, then send `count` framed
                // responses in request order.
                let mut paths = Vec::with_capacity(count);
                for _ in 0..count {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        return Ok(()); // peer closed mid-batch
                    }
                    paths.push(line.trim().to_owned());
                }
                match service.execute_batch(&paths, raw, budget) {
                    Ok(outcomes) => {
                        for o in outcomes {
                            match o {
                                Ok(out) => write_ok(&mut writer, &out.codes)?,
                                Err(e) => write_err(&mut writer, &e.to_string())?,
                            }
                        }
                    }
                    // Admission refused the batch: every sub-query still
                    // gets its framed response.
                    Err(e) => {
                        let msg = e.to_string();
                        for _ in 0..count {
                            write_err(&mut writer, &msg)?;
                        }
                    }
                }
            }
        }
        writer.flush()?;
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        let mut line = req.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Runs a query and returns the response (codes + exact bytes).
    pub fn query(
        &mut self,
        path: &str,
        raw: bool,
        budget: Option<usize>,
    ) -> io::Result<crate::proto::Response> {
        self.send(&Request::Query {
            path: path.to_owned(),
            raw,
            budget,
        })?;
        crate::proto::read_response(&mut self.reader)
    }

    /// Runs a batch of queries through one `QUERYBATCH` exchange and
    /// returns one response per path, in order. Each response's bytes are
    /// exactly what [`query`](Client::query) would have returned for that
    /// path — the property the load generator's mixed leg checks.
    pub fn query_batch(
        &mut self,
        paths: &[&str],
        raw: bool,
        budget: Option<usize>,
    ) -> io::Result<Vec<crate::proto::Response>> {
        let mut msg = Request::QueryBatch {
            count: paths.len(),
            raw,
            budget,
        }
        .encode();
        msg.push('\n');
        for p in paths {
            msg.push_str(p);
            msg.push('\n');
        }
        self.writer.write_all(msg.as_bytes())?;
        paths
            .iter()
            .map(|_| crate::proto::read_response(&mut self.reader))
            .collect()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        self.send(&Request::Ping)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end() == "PONG")
    }

    /// The server's `STATS` JSON line.
    pub fn stats(&mut self) -> io::Result<String> {
        self.send(&Request::Stats)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        line.strip_prefix("STATS ")
            .map(|s| s.trim_end().to_owned())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, line))
    }

    /// Asks the server to stop; returns once it acknowledges.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.trim_end() == "BYE" {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::InvalidData, line))
        }
    }
}
