//! A learning L2 switch, modelling the testbed switch of Figure 2.
//!
//! Store-and-forward with a fixed per-frame forwarding latency; MAC
//! learning over an optionally pre-installed table, with flooding for
//! unknown/broadcast destinations.

use std::any::Any;
use std::collections::HashMap;

use bytes::Bytes;

use crate::engine::{Ctx, Node, PortNo};
use crate::wire::{ethernet, MacAddr};

/// A learning Ethernet switch with `ports` interfaces.
pub struct Switch {
    ports: usize,
    table: HashMap<MacAddr, PortNo>,
    /// Frames forwarded so far.
    pub forwarded: u64,
    /// Frames flooded (unknown destination or broadcast).
    pub flooded: u64,
    /// Frames dropped because they failed to parse as Ethernet.
    pub parse_drops: u64,
    /// Bytes handed to each egress port — the switch-side view of the
    /// load a shaped bottleneck link is asked to carry.
    egress_bytes: Vec<u64>,
}

impl Switch {
    /// A switch with the given number of ports.
    pub fn new(ports: usize) -> Self {
        Switch {
            ports,
            table: HashMap::new(),
            forwarded: 0,
            flooded: 0,
            parse_drops: 0,
            egress_bytes: vec![0; ports],
        }
    }

    /// Pre-install forwarding entries, like a managed switch's static
    /// MAC table: frames for a listed MAC leave on its port from the
    /// first one on, instead of flooding until the MAC is learned.
    /// Learning still runs, and unknown or broadcast destinations still
    /// flood.
    ///
    /// Panics if a port is out of range (a wiring bug).
    pub fn with_table(mut self, entries: impl IntoIterator<Item = (MacAddr, PortNo)>) -> Self {
        for (mac, port) in entries {
            assert!(
                port < self.ports,
                "port {port} is beyond the switch's {} ports",
                self.ports
            );
            self.table.insert(mac, port);
        }
        self
    }

    /// The forwarding table, pre-installed and learned entries alike
    /// (for tests/diagnostics).
    pub fn table(&self) -> &HashMap<MacAddr, PortNo> {
        &self.table
    }

    /// Bytes handed to egress `port` so far (before that link's queue
    /// discipline ruled on them).
    pub fn egress_bytes(&self, port: PortNo) -> u64 {
        self.egress_bytes.get(port).copied().unwrap_or(0)
    }

    fn forward(&mut self, ctx: &mut Ctx, out: PortNo, frame: Bytes) {
        self.egress_bytes[out] += frame.len() as u64;
        ctx.send_frame(out, frame);
    }
}

impl Node for Switch {
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortNo, frame: Bytes) {
        let Ok((dst, src, _)) = ethernet::parse_header(&frame) else {
            self.parse_drops += 1;
            return;
        };
        // Learn the source.
        if !src.is_multicast() {
            self.table.insert(src, port);
        }
        self.forwarded += 1;
        match self.table.get(&dst) {
            Some(&out) if !dst.is_broadcast() => {
                if out != port {
                    self.forward(ctx, out, frame);
                }
            }
            _ => {
                // Flood to every other port.
                self.flooded += 1;
                for out in 0..self.ports {
                    if out != port {
                        self.forward(ctx, out, frame.clone());
                    }
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::link::LinkSpec;
    use crate::time::SimDuration;
    use crate::wire::{EtherType, EthernetFrame};

    /// Leaf host that sends scheduled frames and records arrivals.
    struct Leaf {
        mac: MacAddr,
        plan: Vec<(SimDuration, MacAddr)>,
        inbox: Vec<Bytes>,
    }

    impl Node for Leaf {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, (delay, _)) in self.plan.iter().enumerate() {
                ctx.set_timer(*delay, i as u64);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortNo, frame: Bytes) {
            self.inbox.push(frame);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            let (_, dst) = self.plan[token as usize];
            let f = EthernetFrame {
                dst,
                src: self.mac,
                ethertype: EtherType::Other(0x88B5),
                payload: Bytes::from_static(b"test payload"),
            };
            ctx.send_frame(0, f.emit());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Build a star of `n` leaves around one switch. Leaf `i` has MAC
    /// `02::0(i+1)` and sits on switch port `i`.
    fn star(n: usize) -> (Engine, Vec<usize>, usize) {
        let mut e = Engine::new();
        let sw = e.add_node(Box::new(Switch::new(n)));
        let mut leaves = Vec::new();
        for i in 0..n {
            let leaf = e.add_node(Box::new(Leaf {
                mac: MacAddr::local(i as u8 + 1),
                plan: Vec::new(),
                inbox: Vec::new(),
            }));
            e.connect(leaf, 0, sw, i, LinkSpec::fast_ethernet());
            leaves.push(leaf);
        }
        (e, leaves, sw)
    }

    #[test]
    fn unknown_destination_floods() {
        let (mut e, leaves, _) = star(3);
        e.node_mut::<Leaf>(leaves[0])
            .plan
            .push((SimDuration::ZERO, MacAddr::local(9)));
        e.run();
        assert_eq!(e.node_ref::<Leaf>(leaves[1]).inbox.len(), 1);
        assert_eq!(e.node_ref::<Leaf>(leaves[2]).inbox.len(), 1);
        assert_eq!(e.node_ref::<Leaf>(leaves[0]).inbox.len(), 0);
    }

    #[test]
    fn source_macs_are_learned() {
        let (mut e, leaves, sw) = star(3);
        e.node_mut::<Leaf>(leaves[1])
            .plan
            .push((SimDuration::ZERO, MacAddr::local(9)));
        e.run();
        let sw_ref = e.node_ref::<Switch>(sw);
        assert_eq!(sw_ref.table().get(&MacAddr::local(2)), Some(&1));
        assert!(sw_ref.table().get(&MacAddr::local(1)).is_none());
    }

    #[test]
    fn learned_destination_is_unicast() {
        let (mut e, leaves, _) = star(3);
        // Phase 1 (t=0): leaf 1 broadcasts, teaching the switch its MAC.
        e.node_mut::<Leaf>(leaves[1])
            .plan
            .push((SimDuration::ZERO, MacAddr::BROADCAST));
        // Phase 2 (t=1ms): leaf 0 unicasts to leaf 1.
        e.node_mut::<Leaf>(leaves[0])
            .plan
            .push((SimDuration::from_millis(1), MacAddr::local(2)));
        e.run();
        // Leaf 2 saw only the broadcast; leaf 1 got the unicast.
        assert_eq!(e.node_ref::<Leaf>(leaves[2]).inbox.len(), 1);
        assert_eq!(e.node_ref::<Leaf>(leaves[1]).inbox.len(), 1);
        assert_eq!(e.node_ref::<Leaf>(leaves[0]).inbox.len(), 1);
    }

    #[test]
    fn provisioned_destination_is_unicast_on_its_first_frame() {
        let (mut e, leaves, sw) = star(3);
        *e.node_mut::<Switch>(sw) = Switch::new(3).with_table([(MacAddr::local(2), 1)]);
        // Leaf 1 never sends, so only the pre-installed entry can steer
        // leaf 0's frame.
        e.node_mut::<Leaf>(leaves[0])
            .plan
            .push((SimDuration::ZERO, MacAddr::local(2)));
        e.run();
        assert_eq!(e.node_ref::<Leaf>(leaves[1]).inbox.len(), 1);
        assert_eq!(e.node_ref::<Leaf>(leaves[2]).inbox.len(), 0);
        let s = e.node_ref::<Switch>(sw);
        assert_eq!(s.flooded, 0);
        assert_eq!(s.forwarded, 1);
    }

    #[test]
    #[should_panic(expected = "beyond the switch")]
    fn provisioning_an_unwired_port_panics() {
        let _ = Switch::new(2).with_table([(MacAddr::local(1), 2)]);
    }

    #[test]
    fn broadcast_always_floods() {
        let (mut e, leaves, _) = star(4);
        e.node_mut::<Leaf>(leaves[0])
            .plan
            .push((SimDuration::ZERO, MacAddr::BROADCAST));
        e.run();
        for &l in &leaves[1..] {
            assert_eq!(e.node_ref::<Leaf>(l).inbox.len(), 1);
        }
    }

    #[test]
    fn egress_bytes_and_floods_are_accounted() {
        let (mut e, leaves, sw) = star(3);
        // Unknown destination: flood out of ports 1 and 2.
        e.node_mut::<Leaf>(leaves[0])
            .plan
            .push((SimDuration::ZERO, MacAddr::local(9)));
        e.run();
        let s = e.node_ref::<Switch>(sw);
        assert_eq!(s.flooded, 1);
        assert_eq!(s.egress_bytes(0), 0, "never back out the ingress port");
        assert!(s.egress_bytes(1) > 0);
        assert_eq!(s.egress_bytes(1), s.egress_bytes(2));
        assert_eq!(s.egress_bytes(99), 0, "out-of-range port reads zero");
    }

    #[test]
    fn garbage_frames_counted_not_forwarded() {
        struct Garbage;
        impl Node for Garbage {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send_frame(0, Bytes::from_static(b"xx"));
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new();
        let sw = e.add_node(Box::new(Switch::new(2)));
        let g = e.add_node(Box::new(Garbage));
        e.connect(g, 0, sw, 0, LinkSpec::fast_ethernet());
        e.run();
        let s = e.node_ref::<Switch>(sw);
        assert_eq!(s.parse_drops, 1);
        assert_eq!(s.forwarded, 0);
    }
}
