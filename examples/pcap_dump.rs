//! Dump a measurement session's capture to a Wireshark-readable `.pcap`.
//!
//! Runs one Opera Flash GET repetition (the Table 3 scenario — watch the
//! extra SYN/SYN-ACK of the measurement connection between the two probe
//! requests) and writes `opera_flash_get.pcap`.
//!
//! ```sh
//! cargo run --release --example pcap_dump
//! tshark -r opera_flash_get.pcap    # or open in Wireshark
//! ```

#![deny(deprecated)]

use bnm::browser::{BrowserKind, BrowserProfile};
use bnm::core::scenario::{Scenario, SessionSpec};
use bnm::core::testbed::TestbedConfig;
use bnm::methods::MethodId;
use bnm::sim::pcap;
use bnm::sim::wire::{ParsedPacket, TcpFlags, Transport};
use bnm::timeapi::{MachineTimer, OsKind};

fn main() {
    // The paper's testbed: one session, the default config.
    let session = SessionSpec {
        id: 0,
        plan: MethodId::FlashGet.plan(None),
        profile: BrowserProfile::build(BrowserKind::Opera, OsKind::Windows7).expect("available"),
        machine: MachineTimer::new(OsKind::Windows7, 2013),
        seed: 2013,
    };
    let mut sc = Scenario::build(&TestbedConfig::default(), vec![session], 0);
    sc.run();
    assert!(sc.session(0).result().completed, "session must finish");

    let capture = sc.engine.tap(sc.client_taps[0]);
    let path = std::path::Path::new("opera_flash_get.pcap");
    pcap::write_file(capture, path).expect("write pcap");
    println!(
        "Wrote {} frames to {} ({} bytes)",
        capture.len(),
        path.display(),
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    );

    // A tcpdump-style summary of the trace.
    println!("\ntcpdump-style view (client side):");
    let mut syns = 0;
    for rec in capture.records() {
        let Ok(p) = ParsedPacket::parse(&rec.frame) else {
            continue;
        };
        if let Transport::Tcp(seg) = &p.transport {
            let dir = match rec.dir {
                bnm::sim::capture::CaptureDir::Tx => ">",
                bnm::sim::capture::CaptureDir::Rx => "<",
            };
            if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
                syns += 1;
            }
            let snippet = String::from_utf8_lossy(&seg.payload)
                .chars()
                .take(38)
                .collect::<String>()
                .replace(['\r', '\n'], "·");
            println!(
                "{:>12.6}s {dir} {}:{} → {}:{} [{}] len {}  {}",
                rec.ts.as_secs_f64(),
                p.ip.src,
                seg.src_port,
                p.ip.dst,
                seg.dst_port,
                seg.flags,
                seg.payload.len(),
                snippet
            );
        }
    }
    println!(
        "\n{} client SYNs in the trace — the container connection plus the fresh\n\
         measurement connection Opera's Flash stack opened (Table 3's mechanism).",
        syns
    );
}
