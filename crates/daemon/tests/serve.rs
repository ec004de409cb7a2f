//! End-to-end serving tests: a real `Service` on ephemeral ports, real
//! TCP clients, both wire formats.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use vap_daemon::config::Mode;
use vap_daemon::soak::SoakConfig;
use vap_daemon::{DaemonConfig, Service};
use vap_report::RunOptions;

fn service() -> Service {
    let opts = RunOptions { modules: Some(6), threads: Some(1), ..RunOptions::default() };
    let cfg = DaemonConfig {
        mode: Mode::Sweep,
        prom_port: 0,
        json_port: 0,
        ticks: 0, // unbounded: the test decides when to stop
        ..DaemonConfig::default()
    };
    Service::bind(&opts, &cfg).expect("bind on ephemeral ports")
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the exporter");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send the request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read the response");
    out
}

#[test]
fn prometheus_endpoint_serves_the_live_fleet() {
    let service = service();
    let addr = service.prom_addr().unwrap();
    let stop = service.stop_flag();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| service.run());

        // poll until the sensor has published at least one epoch
        let metrics = loop {
            let body = http_get(addr, "/metrics");
            assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
            if !body.contains("vap_snapshot_epoch 0\n") {
                break body;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(metrics.contains("# TYPE vap_module_power_watts gauge"));
        for module in 0..6 {
            assert!(
                metrics.contains(&format!("vap_module_power_watts{{module=\"{module}\"}}")),
                "missing module {module} in:\n{metrics}"
            );
        }
        assert!(metrics.contains("vap_cluster_power_watts "));

        let index = http_get(addr, "/");
        assert!(index.contains("GET /metrics"));
        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        stop.raise();
        let summary = run.join().unwrap().unwrap();
        assert!(summary.published > 0);
        assert!(summary.registry_reads > 0, "the scrapes above count as registry reads");
    });
}

#[test]
fn json_stream_delivers_increasing_epochs() {
    let service = service();
    let addr = service.json_addr().unwrap();
    let stop = service.stop_flag();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| service.run());

        let stream = TcpStream::connect(addr).unwrap();
        let mut epochs = Vec::new();
        for line in BufReader::new(stream).lines() {
            let line = line.unwrap();
            assert!(line.starts_with("{\"epoch\":"), "{line}");
            assert!(line.trim_end().ends_with('}'), "{line}");
            let epoch: u64 = line["{\"epoch\":".len()..line.find(',').unwrap()]
                .parse()
                .expect("epoch is a number");
            if epoch == 0 {
                // the registry's empty initial snapshot, sent to clients
                // that connect before the first tick
                continue;
            }
            assert!(line.contains("\"modules\":[{\"id\":0,"), "{line}");
            epochs.push(epoch);
            if epochs.len() == 3 {
                break;
            }
        }
        assert_eq!(epochs.len(), 3);
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs not increasing: {epochs:?}");

        stop.raise();
        run.join().unwrap().unwrap();
    });
}

#[test]
fn soak_of_an_in_process_service_is_error_free() {
    let opts = RunOptions { modules: Some(6), threads: Some(1), ..RunOptions::default() };
    let cfg = DaemonConfig { prom_port: 0, json_port: 0, accel: 100.0, ..DaemonConfig::default() };
    let soak = SoakConfig { prom_clients: 2, json_clients: 1, seconds: 0.5 };
    let (report, summary) = Service::bind(&opts, &cfg).unwrap().soak(&soak).unwrap();
    assert!(report.passed(&soak), "{report:?}");
    assert!(report.scrapes > 0 && report.json_lines > 0, "{report:?}");
    assert_eq!(report.scrape_ms.count, report.scrapes, "one latency per scrape");
    assert!(report.wall_s >= 0.5);
    assert!(summary.published > 0);
    assert!(summary.registry_reads >= report.scrapes, "every scrape reads the registry");
}
