//! The live server keeps nothing per request: once warm, serving
//! thousands more identical requests leaves the heap where it was —
//! through the in-process `submit` door, and through a `RemoteServer`
//! with one `RemoteClient`, whose resolution book holds a fixed two
//! results.
//!
//! The shared counting allocator (`tests/common`) keeps the process's
//! live heap bytes across all threads (allocations minus deallocations, plus each
//! `realloc`'s change in size), so the server's worker, supervisor and
//! connection threads are counted with the caller's. The tests take one
//! lock, so only one server runs at a time.

use std::sync::Mutex;
use std::time::Duration;

use dwt::{FilterBank, Matrix};
use wserv::remote::{RemoteConfig, RemoteServer};
use wserv::{DecomposeRequest, MemListener, RemoteClient, ServiceConfig, WaveletService};

mod common;

/// One server at a time: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

const WARM_UP: usize = 500;
const MEASURED: usize = 4_000;

/// Most the live heap may grow over the measured requests: well under
/// one 8-byte record per request.
const ALLOWANCE: isize = 1024;

fn request() -> DecomposeRequest {
    let image = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
    DecomposeRequest::new(image, FilterBank::haar(), 1)
}

/// Live heap bytes once the server's threads have finished the
/// bookkeeping that follows the last response.
fn settled_live() -> isize {
    std::thread::sleep(Duration::from_millis(50));
    common::live_bytes()
}

/// Serve the warm-up, then the measured requests, through `serve_one`,
/// and return how far the live heap moved over the measured ones.
fn growth(mut serve_one: impl FnMut()) -> isize {
    (0..WARM_UP).for_each(|_| serve_one());
    let before = settled_live();
    (0..MEASURED).for_each(|_| serve_one());
    settled_live() - before
}

#[test]
fn submit_keeps_nothing_per_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = WaveletService::start(ServiceConfig::default());
    let grown = growth(|| {
        let handle = service.submit(request()).expect("queue has room");
        handle.wait().expect("an 8×8 Haar request serves");
    });
    service.shutdown().expect("fault-free shutdown succeeds");
    assert!(
        grown < ALLOWANCE,
        "{MEASURED} requests through submit grew the live heap by {grown} B"
    );
}

#[test]
fn a_remote_server_keeps_nothing_per_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let listener = MemListener::new(1 << 16, Duration::from_millis(1));
    let server = RemoteServer::start(
        ServiceConfig::default(),
        RemoteConfig::default(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let mut client = RemoteClient::new(Box::new(listener), 1);
    let req = request();
    let grown = growth(|| {
        let outcome = client.call(&req).expect("clean shim");
        outcome.expect("an 8×8 Haar request serves");
    });
    client.goodbye();
    server.shutdown().expect("clean drain");
    assert!(
        grown < ALLOWANCE,
        "{MEASURED} calls through a RemoteServer grew the live heap by {grown} B"
    );
}
