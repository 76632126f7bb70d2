//! Request-body table for the node-list endpoints: `/generate` and
//! `/subscribe` decode the same `{"v": 1, "nodes": [..]}` body, so every
//! body below must get the same status and error `code` from both. The rows
//! cover the JSON spellings a client may legally use (extra fields, field
//! order, whitespace, escaped keys, integral floats) next to the refusals:
//! `bad_version` for a missing, non-integer or future `"v"` (checked before
//! the node list), `bad_request` for everything else.

use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_server::wire::{self, Json};
use rcw_server::{RcwServer, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn quick_cfg() -> RcwConfig {
    RcwConfig {
        k: 1,
        local_budget: 1,
        candidate_hops: 2,
        max_expand_rounds: 2,
        sampled_disturbances: 4,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// Posts `body` on a fresh connection and returns the status plus, for a
/// refusal, the structured error `code`. Only the response head is read on
/// success: a `/subscribe` 200 opens a stream that never ends on its own.
fn post(addr: &str, path: &str, body: &str) -> (u16, Option<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = None;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
        if let Some(value) = line.strip_prefix("content-length:") {
            content_length = Some(value.trim().parse::<usize>().expect("length"));
        }
    }
    if status == 200 {
        return (status, None);
    }
    let mut text = vec![0u8; content_length.expect("error bodies are length-framed")];
    reader.read_exact(&mut text).expect("error body");
    let text = String::from_utf8(text).expect("utf-8 error body");
    let error = wire::error_from_json(&Json::parse(text.trim_end()).expect("json error body"))
        .expect("structured error body");
    (status, Some(error.code))
}

/// Expected status and, for a refusal, error code.
type Answer = (u16, Option<&'static str>);

#[test]
fn generate_and_subscribe_answer_every_body_alike() {
    let ds = citeseer::build(Scale::Tiny, 5);
    let appnp = ds.train_appnp(8, 5);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let a = ds.pick_test_nodes(1, 5)[0];
    let n = ds.graph.num_nodes();
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let config = ServerConfig::single(&engine).with_workers(2);

    let ok: Answer = (200, None);
    let bad_version: Answer = (400, Some("bad_version"));
    let bad_request: Answer = (400, Some("bad_request"));
    let rows: Vec<(&str, String, Answer)> = vec![
        ("canonical", format!(r#"{{"v":1,"nodes":[{a}]}}"#), ok),
        (
            "extra top-level field",
            format!(r#"{{"v":1,"nodes":[{a}],"trace":{{"id":[1,"x"]}}}}"#),
            ok,
        ),
        (
            "integral float node id",
            format!(r#"{{"v":1,"nodes":[{a}.0]}}"#),
            ok,
        ),
        (
            "exponent node id",
            format!(r#"{{"v":1,"nodes":[{a}e0]}}"#),
            ok,
        ),
        (
            "integral float version",
            format!(r#"{{"v":1.0,"nodes":[{a}]}}"#),
            ok,
        ),
        (
            "reordered fields",
            format!(r#"{{"nodes":[{a}],"v":1}}"#),
            ok,
        ),
        (
            "whitespace",
            format!("\n{{ \"v\" : 1 ,\r\n\t\"nodes\" : [ {a} ] }}\n"),
            ok,
        ),
        (
            "escaped key",
            format!(r#"{{"v":1,"no\u0064es":[{a}]}}"#),
            ok,
        ),
        (
            "repeated key: the first wins",
            format!(r#"{{"v":1,"v":2,"nodes":[{a}],"nodes":"x"}}"#),
            ok,
        ),
        ("missing v", format!(r#"{{"nodes":[{a}]}}"#), bad_version),
        (
            "future v",
            format!(r#"{{"v":2,"nodes":[{a}]}}"#),
            bad_version,
        ),
        (
            "string v",
            format!(r#"{{"v":"1","nodes":[{a}]}}"#),
            bad_version,
        ),
        (
            "fractional v",
            format!(r#"{{"v":1.5,"nodes":[{a}]}}"#),
            bad_version,
        ),
        (
            "missing v outranks bad nodes",
            r#"{"nodes":"x"}"#.to_string(),
            bad_version,
        ),
        ("non-object body", format!("[{a}]"), bad_version),
        ("empty body", String::new(), bad_request),
        (
            "truncated",
            format!(r#"{{"v":1,"nodes":[{a}]"#),
            bad_request,
        ),
        (
            "trailing bytes",
            format!(r#"{{"v":1,"nodes":[{a}]}} x"#),
            bad_request,
        ),
        (
            "syntax error outranks bad v",
            format!(r#"{{"v":2,"nodes":[{a},]}}"#),
            bad_request,
        ),
        ("missing nodes", r#"{"v":1}"#.to_string(), bad_request),
        (
            "non-array nodes",
            r#"{"v":1,"nodes":5}"#.to_string(),
            bad_request,
        ),
        (
            "string node id",
            r#"{"v":1,"nodes":["1"]}"#.to_string(),
            bad_request,
        ),
        (
            "negative",
            r#"{"v":1,"nodes":[-1]}"#.to_string(),
            bad_request,
        ),
        (
            "fractional",
            r#"{"v":1,"nodes":[1.5]}"#.to_string(),
            bad_request,
        ),
        ("empty", r#"{"v":1,"nodes":[]}"#.to_string(), bad_request),
        (
            "out of range",
            format!(r#"{{"v":1,"nodes":[{a},{n}]}}"#),
            bad_request,
        ),
    ];

    std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));
        let mut failures = Vec::new();
        for (what, body, (status, code)) in &rows {
            let expected = (*status, code.map(str::to_string));
            for path in ["/generate", "/subscribe"] {
                let got = post(&addr, path, body);
                if got != expected {
                    failures.push(format!(
                        "{what}: {path} {body:?} answered {got:?}, expected {expected:?}"
                    ));
                }
            }
        }
        let mut control = rcw_server::client::Client::connect(&addr).expect("connect");
        control.shutdown().expect("shutdown");
        server_thread.join().expect("server thread");
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    });
}
