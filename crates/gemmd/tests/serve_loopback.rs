//! Loopback smoke test of the TCP front-end: a real socket, a real
//! client, three submissions, a stats reply, a clean shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use gemmd::frontend::{serve, Frontend};
use gemmd::Config;
use mmsim::{CostModel, Machine, Topology};

#[test]
fn three_jobs_over_tcp_yield_stats() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let server = std::thread::spawn(move || {
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        let mut frontend =
            Frontend::new(machine, Config::default(), "edf").expect("edf is a known policy");
        // Virtual clock driven by the test through explicit arrivals;
        // the default stamp never advances.
        serve(&listener, &mut frontend, || 0.0).expect("serve");
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim().to_string()
    };

    for (i, n) in [8, 16, 8].iter().enumerate() {
        let reply = ask(&format!(
            "{{\"verb\":\"submit\",\"n\":{n},\"arrival\":{}.0}}",
            i * 100
        ));
        assert!(
            reply.contains("\"ok\":true") && reply.contains(&format!("\"id\":{i}")),
            "submit {i}: {reply}"
        );
    }

    let stats = ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"ok\":true"), "stats: {stats}");
    assert!(stats.contains("\"jobs\":3"), "stats: {stats}");
    assert!(stats.contains("\"policy\":\"edf\""), "stats: {stats}");
    assert!(stats.contains("\"p99\":"), "stats: {stats}");

    let status = ask("{\"verb\":\"status\",\"id\":1}");
    assert!(status.contains("\"state\":\"done\""), "status: {status}");

    let bye = ask("{\"verb\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");
    server.join().expect("server thread");
}

#[test]
fn drain_over_tcp_bounces_late_submits_and_survives_reconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let server = std::thread::spawn(move || {
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        let mut frontend =
            Frontend::new(machine, Config::default(), "edf").expect("edf is a known policy");
        serve(&listener, &mut frontend, || 0.0).expect("serve");
    });

    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    };
    let ask = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str| {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim().to_string()
    };

    let (mut reader, mut writer) = connect();
    let reply = ask(&mut reader, &mut writer, "{\"verb\":\"submit\",\"n\":16}");
    assert!(reply.contains("\"ok\":true"), "submit: {reply}");

    let drain = ask(&mut reader, &mut writer, "{\"verb\":\"drain\"}");
    assert!(
        drain.contains("\"draining\":true") && drain.contains("\"jobs\":1"),
        "drain: {drain}"
    );

    let bounced = ask(&mut reader, &mut writer, "{\"verb\":\"submit\",\"n\":8}");
    assert!(
        bounced.contains("\"backpressure\":true"),
        "late submit: {bounced}"
    );

    // The drain survives a reconnect: the state lives in the
    // front-end, not the connection.
    drop((reader, writer));
    let (mut reader, mut writer) = connect();
    let bounced = ask(&mut reader, &mut writer, "{\"verb\":\"submit\",\"n\":8}");
    assert!(
        bounced.contains("\"backpressure\":true"),
        "post-reconnect submit: {bounced}"
    );
    let stats = ask(&mut reader, &mut writer, "{\"verb\":\"stats\"}");
    assert!(stats.contains("\"jobs\":1"), "stats: {stats}");

    let bye = ask(&mut reader, &mut writer, "{\"verb\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");
    server.join().expect("server thread");
}

#[test]
fn oversized_request_lines_get_one_error_and_a_disconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let server = std::thread::spawn(move || {
        let machine = Machine::new(Topology::hypercube(2), CostModel::ncube2());
        let mut frontend =
            Frontend::new(machine, Config::default(), "fifo").expect("fifo is a known policy");
        serve(&listener, &mut frontend, || 0.0).expect("serve");
    });

    // Exactly MAX_LINE bytes with no newline: the bound trips the
    // moment the server has consumed them all, so its close is a clean
    // FIN (no unread bytes to turn it into a reset).
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let huge = "x".repeat(gemmd::frontend::MAX_LINE as usize);
    writer.write_all(huge.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains("request line too long"), "oversize: {reply}");
    // The server dropped us: the stream reaches EOF.
    let mut rest = String::new();
    while reader.read_line(&mut rest).expect("drain") > 0 {}

    // A fresh, well-behaved client still gets served.
    let stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim().to_string()
    };
    let stats = ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"jobs\":0"), "stats: {stats}");
    let bye = ask("{\"verb\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");
    server.join().expect("server thread");
}

#[test]
fn misbehaving_clients_do_not_stop_the_service() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let server = std::thread::spawn(move || {
        let machine = Machine::new(Topology::hypercube(2), CostModel::ncube2());
        let mut frontend =
            Frontend::new(machine, Config::default(), "fifo").expect("fifo is a known policy");
        serve(&listener, &mut frontend, || 0.0).expect("serve");
    });

    // A request line that is not UTF-8 gets one error reply.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"\xff\xfe\n").expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains("not UTF-8"), "non-UTF-8 line: {reply}");
    drop((reader, writer));

    // A client that closes with a reply unread resets the connection:
    // wait until the reply has arrived, then close without reading it.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"{\"verb\":\"stats\"}\n").expect("write");
    stream.peek(&mut [0u8; 1]).expect("peek");
    drop((stream, writer));

    // The next client is still served.
    let stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim().to_string()
    };
    let stats = ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"jobs\":0"), "stats: {stats}");
    let bye = ask("{\"verb\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");
    server.join().expect("server thread");
}
