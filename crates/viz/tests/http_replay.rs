//! `cnnre-viz --replay http://…` end to end: the binary fetches the golden
//! LeNet recording from a one-shot loopback responder (200, chunked body)
//! and must render the same graph and timeline as the file replay; a 404
//! must make it exit 1.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::thread::JoinHandle;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Serves one request on an ephemeral loopback port with `head` followed
/// by `body`, then closes; returns the address and the responder thread,
/// which yields the request head it read.
fn respond_once(head: &'static str, body: Vec<u8>) -> (String, JoinHandle<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut request = Vec::new();
        let mut byte = [0u8; 1];
        while !request.ends_with(b"\r\n\r\n") {
            if sock.read(&mut byte).expect("read request") == 0 {
                break;
            }
            request.push(byte[0]);
        }
        sock.write_all(head.as_bytes()).expect("write head");
        sock.write_all(&body).expect("write body");
        String::from_utf8_lossy(&request).into_owned()
    });
    (addr, handle)
}

/// Encodes `data` as a chunked transfer-encoded body of 1000-byte chunks.
fn chunked(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in data.chunks(1000) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnnre-viz-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replay_from_url_renders_the_golden_graph_and_timeline() {
    let evt = std::fs::read(golden("lenet_events.evt")).expect("golden .evt exists");
    let (addr, responder) = respond_once(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        chunked(&evt),
    );
    let dir = out_dir("ok");
    let status = Command::new(env!("CARGO_BIN_EXE_cnnre-viz"))
        .arg("--replay")
        .arg(format!("http://{addr}/events"))
        .arg("--out-dir")
        .arg(&dir)
        .status()
        .expect("cnnre-viz runs");
    let request = responder.join().expect("responder joined");
    assert!(status.success(), "cnnre-viz failed: {status}");
    assert!(
        request.starts_with("GET /events HTTP/1.1\r\n"),
        "unexpected request: {request}"
    );
    for (out, want) in [
        ("graph.dot", "lenet_graph.dot"),
        ("timeline.svg", "lenet_timeline.svg"),
    ] {
        let got = std::fs::read(dir.join(out)).expect("rendered output exists");
        let want = std::fs::read(golden(want)).expect("golden exists");
        assert!(got == want, "{out} differs from tests/golden/{out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_from_url_exits_1_on_a_non_200_status() {
    // The body is a valid stream, so only the status check can fail it.
    let evt = std::fs::read(golden("lenet_events.evt")).expect("golden .evt exists");
    let (addr, responder) = respond_once(
        "HTTP/1.1 404 Not Found\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        chunked(&evt),
    );
    let dir = out_dir("404");
    let status = Command::new(env!("CARGO_BIN_EXE_cnnre-viz"))
        .arg("--replay")
        .arg(format!("http://{addr}"))
        .arg("--out-dir")
        .arg(&dir)
        .status()
        .expect("cnnre-viz runs");
    let request = responder.join().expect("responder joined");
    assert_eq!(status.code(), Some(1), "a 404 must exit 1");
    assert!(
        request.starts_with("GET /events HTTP/1.1\r\n"),
        "the path defaults to /events: {request}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
