//! Golden bytes of the wire protocol: every frame kind the server writes,
//! every request line a `Client` method sends, and the response digests the
//! flight recorder stores. A change to any of them changes what peers of
//! another build read, so each is pinned byte for byte here.

use masksearch_core::{ImageId, MaskId};
use masksearch_obs::{fnv1a, RecorderStatus};
use masksearch_query::{MutationOutcome, QueryOutput, QueryStats, ResultRow};
use masksearch_service::protocol::{self, Frame, WireResponse};
use masksearch_service::{Client, MutationResponse, QueryResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

fn query_response() -> QueryResponse {
    QueryResponse {
        output: QueryOutput {
            rows: vec![
                ResultRow::mask(MaskId::new(1), None),
                ResultRow::mask(MaskId::new(5), Some(0.1 + 0.2)),
                ResultRow::image(ImageId::new(3), Some(-1.5)),
            ],
            stats: QueryStats {
                candidates: 10,
                pruned: 7,
                verified: 2,
                masks_loaded: 1,
                ..Default::default()
            },
        },
        queue_wait: Duration::from_micros(5),
        exec_time: Duration::from_micros(184),
    }
}

fn mutation_response() -> MutationResponse {
    MutationResponse {
        outcome: MutationOutcome {
            inserted: 3,
            deleted: 1,
            updated: 2,
        },
        queue_wait: Duration::from_micros(2),
        exec_time: Duration::from_micros(77),
    }
}

fn render(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut wire = Vec::new();
    write(&mut wire).unwrap();
    String::from_utf8(wire).unwrap()
}

const ROWS: &str = "mask 1\nmask 5 0.30000000000000004\nimage 3 -1.5\n";

#[test]
fn every_frame_kind_has_golden_bytes() {
    let query = query_response();
    let header = "OK 3 candidates=10 pruned=7 verified=2 loaded=1 wall_us=184";
    assert_eq!(
        render(|w| protocol::write_response(w, &query)),
        format!("{header}\n{ROWS}END\n")
    );
    assert_eq!(
        render(|w| protocol::write_response_with_bound(w, &query, Some(0.25))),
        format!("{header} bound=0.25\n{ROWS}END\n")
    );
    assert_eq!(
        render(|w| protocol::write_mutation_response(w, &mutation_response())),
        "OK 0 inserted=3 deleted=1 updated=2 wall_us=77\nEND\n"
    );
    let plan = [
        "query kind=filter wall_us=12".to_string(),
        "  verify verified=1".to_string(),
    ];
    assert_eq!(
        render(|w| protocol::write_plan_response(w, &plan)),
        "PLAN 2\nquery kind=filter wall_us=12\n  verify verified=1\nEND\n"
    );
    assert_eq!(
        render(|w| protocol::write_metrics_response(w, "# HELP a An a.\na 1\n")),
        "METRICS 2\n# HELP a An a.\na 1\nEND\n"
    );
    let profiles = ["profile seq=1".to_string(), "  query wall_us=3".to_string()];
    assert_eq!(
        render(|w| protocol::write_profiles_response(w, &profiles)),
        "PROFILES 2\nprofile seq=1\n  query wall_us=3\nEND\n"
    );
    assert_eq!(
        render(|w| protocol::write_delta_frame(w, 3, &[("completed", 2), ("failed", 0)])),
        "DELTA 3\nseq=3\ncompleted=2\nfailed=0\nEND\n"
    );
    let status = RecorderStatus {
        active: true,
        path: Some("/tmp/f.bin".into()),
        records: 12,
        bytes: 3400,
        dropped: 1,
    };
    assert_eq!(
        render(|w| protocol::write_record_status(w, &status)),
        "RECORD active=1 path=/tmp/f.bin records=12 bytes=3400 dropped=1\nEND\n"
    );
    assert_eq!(render(protocol::write_pong), "PONG v7\nEND\n");
    assert_eq!(
        render(|w| protocol::write_error(w, &"bad\r\nthing")),
        "ERR bad  thing\nEND\n"
    );
    assert_eq!(
        render(|w| protocol::write_lookup_response(w, &[MaskId::new(2), MaskId::new(9)])),
        "OK 2\nmask 2\nmask 9\nEND\n"
    );
}

#[test]
fn response_digests_hash_their_golden_canonical_form() {
    let query = query_response();
    let counts = "candidates=10 pruned=7 verified=2 loaded=1 inserted=0 deleted=0 updated=0";
    assert_eq!(
        protocol::digest_query_response(&query, None),
        fnv1a(format!("OK 3 {counts}\n{ROWS}").as_bytes())
    );
    assert_eq!(
        protocol::digest_query_response(&query, Some(0.25)),
        fnv1a(format!("OK 3 {counts} bound=0.25\n{ROWS}").as_bytes())
    );
    assert_eq!(
        protocol::digest_mutation_response(&mutation_response()),
        fnv1a(b"OK 0 candidates=0 pruned=0 verified=0 loaded=0 inserted=3 deleted=1 updated=2\n")
    );
    // The client-side digest hashes the rows it holds, whatever its summary
    // declared, and ignores the wall time.
    let mut wire = WireResponse {
        rows: query.output.rows.clone(),
        ..Default::default()
    };
    wire.summary.rows = 99;
    wire.summary.wall_us = 5;
    wire.summary.inserted = 4;
    wire.summary.bound = Some(f64::INFINITY);
    assert_eq!(
        protocol::digest_wire_response(&wire),
        fnv1a(
            format!(
                "OK 3 candidates=0 pruned=0 verified=0 loaded=0 inserted=4 deleted=0 \
                 updated=0 bound=inf\n{ROWS}"
            )
            .as_bytes()
        )
    );
}

/// The canned answer a scripted server gives each request line.
fn answer(line: &str) -> String {
    let keyword = line.split(' ').next().unwrap_or("");
    match keyword {
        "PING" => "PONG v7\nEND\n".to_string(),
        "STATS" if line.starts_with("STATS PROFILES") => "PROFILES 1\np\nEND\n".to_string(),
        "STATS" => "STATS completed=1\nEND\n".to_string(),
        "METRICS" => "METRICS 1\na 1\nEND\n".to_string(),
        "RECORD" => "RECORD active=0 path=- records=0 bytes=0 dropped=0\nEND\n".to_string(),
        "MONITOR" => {
            let frames: usize = line.split(' ').nth(1).unwrap().parse().unwrap();
            (0..frames)
                .map(|seq| format!("DELTA 2\nseq={seq}\ncompleted=1\nEND\n"))
                .collect()
        }
        "EXPLAIN" => "PLAN 1\nquery kind=filter\nEND\n".to_string(),
        "LOOKUP" => "OK 1\nmask 4\nEND\n".to_string(),
        _ => "OK 0 inserted=0 deleted=0 updated=0 wall_us=1\nEND\n".to_string(),
    }
}

/// Accepts one connection, answers every line with [`answer`] until `QUIT`,
/// and returns the lines it read, each `TOKEN <n>` written `TOKEN <t>`.
fn scripted_server(listener: TcpListener) -> Vec<String> {
    let (stream, _) = listener.accept().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            return lines;
        }
        let line = line.trim_end_matches('\n').to_string();
        writer.write_all(answer(&line).as_bytes()).unwrap();
        let quit = line == "QUIT";
        lines.push(match line.strip_prefix("TOKEN ") {
            Some(rest) => {
                let (token, sql) = rest.split_once(' ').unwrap();
                assert!(token.parse::<u64>().is_ok(), "{line}");
                format!("TOKEN <t> {sql}")
            }
            None => line,
        });
        if quit {
            return lines;
        }
    }
}

#[test]
fn every_client_method_sends_its_golden_request_line() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || scripted_server(listener));

    let select = "SELECT mask_id FROM masks WHERE CP(mask, object, (0.5, 1.0)) > 3";
    let insert = "INSERT INTO masks VALUES (7, 1, 1, 1, (0.5))";
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.stats().unwrap();
    client.metrics().unwrap();
    client.metrics_window(60).unwrap();
    client.record_start(None).unwrap();
    client.record_start(Some("/tmp/Rec ording.bin")).unwrap();
    client.record_stop().unwrap();
    client.record_status().unwrap();
    assert_eq!(client.monitor(2, 5).unwrap().len(), 2);
    assert_eq!(client.profiles(3).unwrap(), vec!["p".to_string()]);
    assert_eq!(
        client.lookup(&[MaskId::new(4), MaskId::new(9)]).unwrap(),
        vec![MaskId::new(4)]
    );
    assert!(client.lookup(&[]).unwrap().is_empty());
    client.query(select).unwrap();
    client.query(insert).unwrap();
    client.query("delete from masks where mask_id = 7").unwrap();
    client
        .query("UPDATE masks SET model_id = 2 WHERE mask_id = 7")
        .unwrap();
    client
        .query("BEGIN; DELETE FROM masks WHERE mask_id = 7; COMMIT")
        .unwrap();
    client.query("BEGIN").unwrap();
    client.query(insert).unwrap();
    client.query("COMMIT").unwrap();
    client.explain(false, select).unwrap();
    client.explain(true, select).unwrap();
    assert!(matches!(
        client.round_trip_raw("SELECT 1").unwrap(),
        Frame::Rows(_)
    ));
    client.quit().unwrap();

    let sent = server.join().unwrap();
    let want = [
        "PING".to_string(),
        "PING".to_string(),
        "STATS".to_string(),
        "METRICS".to_string(),
        "METRICS WINDOW 60".to_string(),
        "RECORD START".to_string(),
        "RECORD START /tmp/Rec ording.bin".to_string(),
        "RECORD STOP".to_string(),
        "RECORD STATUS".to_string(),
        "MONITOR 2 5".to_string(),
        "STATS PROFILES 3".to_string(),
        "LOOKUP 4 9".to_string(),
        select.to_string(),
        format!("TOKEN <t> {insert}"),
        "TOKEN <t> delete from masks where mask_id = 7".to_string(),
        "TOKEN <t> UPDATE masks SET model_id = 2 WHERE mask_id = 7".to_string(),
        "TOKEN <t> BEGIN; DELETE FROM masks WHERE mask_id = 7; COMMIT".to_string(),
        "BEGIN".to_string(),
        insert.to_string(),
        "COMMIT".to_string(),
        format!("EXPLAIN {select}"),
        format!("EXPLAIN ANALYZE {select}"),
        "SELECT 1".to_string(),
        "QUIT".to_string(),
    ];
    assert_eq!(sent, want);
}
