//! `poller_fanin`: what one wakeup of the serve loop's readiness wait
//! costs on each `polling` backend, with N idle sockets registered beside
//! the one that is hot — the fan-in of a server holding idle keep-alive
//! connections.
//!
//! Each iteration writes one byte into a loopback TCP pair, waits on the
//! poller until the read end reports readable, and reads the byte back:
//! the round trip of the event loop's wake socket. The idle sockets are
//! the accepted ends of loopback connections that never send, registered
//! for reads as the event loop registers its idle connections. `epoll`
//! reports the ready socket alone; `poll(2)` hands the kernel every
//! registered slot on every wait, so its cost grows with the idle count.
//! A row that needs more descriptors than the soft `RLIMIT_NOFILE` allows
//! is skipped with a note.

use criterion::{criterion_group, criterion_main, Criterion};
use polling::{Backend, Poller};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// A connected loopback pair: (client end, accepted end).
fn tcp_pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    (client, accepted)
}

/// The soft cap on this process's open descriptors (`Max open files` in
/// `/proc/self/limits`); `None` when unlimited or unreadable.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn bench_poller(c: &mut Criterion) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let limit = open_file_limit();
    let mut group = c.benchmark_group("poller_fanin");
    for (name, backend) in [("epoll", Backend::Epoll), ("poll", Backend::Poll)] {
        for idle in [0, 30, 300, 1000] {
            // Two descriptors per idle pair, plus the hot pair, the
            // listener, the poller, stdio and some headroom.
            let needed = 2 * idle + 64;
            if let Some(limit) = limit.filter(|&limit| needed > limit) {
                println!(
                    "poller_fanin/{name}/idle_{idle}: skipped, needs {needed} open files \
                     and the soft limit is {limit}"
                );
                continue;
            }
            let mut poller = Poller::with_backend(backend).unwrap();
            let (mut tx, mut rx) = tcp_pair(&listener);
            tx.set_nodelay(true).unwrap();
            poller.interest(rx.as_raw_fd(), 0, true, false).unwrap();
            // Both ends stay open for the run: a closed peer would make an
            // idle socket readable.
            let idle_pairs: Vec<_> = (0..idle).map(|_| tcp_pair(&listener)).collect();
            for (i, (_, accepted)) in idle_pairs.iter().enumerate() {
                let fd = accepted.as_raw_fd();
                poller.interest(fd, 1 + i as u64, true, false).unwrap();
            }
            let mut events = Vec::new();
            let mut byte = [0u8; 1];
            group.bench_function(format!("{name}/idle_{idle}"), |b| {
                b.iter(|| {
                    tx.write_all(b"w").unwrap();
                    poller.wait(&mut events, -1).unwrap();
                    assert_eq!(events.len(), 1, "only the hot socket is ready");
                    rx.read_exact(&mut byte).unwrap();
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    targets = bench_poller
}
criterion_main!(benches);
