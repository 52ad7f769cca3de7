//! Simulation configuration (Table 2 of the paper).

use crate::rng_contract::RngContract;

/// Parameters of the cycle-level simulation.
///
/// [`SimConfig::paper_defaults`] reproduces Table 2: 8-packet input buffers,
/// 4-packet output buffers, virtual cut-through flow control, 16-phit packets,
/// 1-cycle links and crossbar, and an internal crossbar speedup of 2.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Packet length in phits.
    pub packet_length: u64,
    /// Capacity of each input virtual-channel FIFO, in packets.
    pub input_buffer_packets: usize,
    /// Capacity of each output staging buffer, in packets.
    pub output_buffer_packets: usize,
    /// Capacity of each server's source (injection) queue, in packets.
    pub source_queue_packets: usize,
    /// Link traversal latency in cycles (on top of serialization).
    pub link_latency: u64,
    /// Crossbar traversal latency in cycles (on top of serialization).
    pub crossbar_latency: u64,
    /// Internal crossbar speedup: the crossbar moves packets this many times
    /// faster than the links and can grant this many packets per output per cycle.
    pub crossbar_speedup: usize,
    /// Servers attached to every switch (the concentration).
    pub servers_per_switch: usize,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles of the measurement window.
    pub measure_cycles: u64,
    /// Seed for every random decision of the simulation (traffic, tie-breaks).
    pub seed: u64,
    /// If no packet moves for this many cycles while packets are in flight the
    /// simulator reports a stall (deadlock or undeliverable packets).
    pub watchdog_cycles: u64,
    /// Which versioned sequence of rate-mode generation draws the engine
    /// makes (see [`crate::rng_contract`]). New work defaults to v2 (the
    /// counting sampler); pin [`RngContract::V1PerServer`] to reproduce
    /// fixtures and stores produced before the contract was versioned.
    pub rng_contract: RngContract,
    /// Deprecated and ignored: the engine always steps sequentially. The
    /// field stays only for code that still sets it, and goes once nothing
    /// does.
    pub partitions: usize,
}

impl SimConfig {
    /// The parameters of Table 2, with the concentration and VC count supplied
    /// by the experiment (16 servers/switch and 4 VCs in 2D, 8 and 6 in 3D).
    pub fn paper_defaults(servers_per_switch: usize, num_vcs: usize) -> Self {
        SimConfig {
            packet_length: 16,
            input_buffer_packets: 8,
            output_buffer_packets: 4,
            source_queue_packets: 8,
            link_latency: 1,
            crossbar_latency: 1,
            crossbar_speedup: 2,
            servers_per_switch,
            num_vcs,
            warmup_cycles: 5_000,
            measure_cycles: 10_000,
            seed: 1,
            watchdog_cycles: 50_000,
            rng_contract: RngContract::V2Counting,
            partitions: 1,
        }
    }

    /// A scaled-down configuration for fast tests: short warmup/measurement
    /// windows, otherwise identical to the paper's parameters.
    pub fn quick(servers_per_switch: usize, num_vcs: usize) -> Self {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            ..Self::paper_defaults(servers_per_switch, num_vcs)
        }
    }

    /// Total number of servers for a network with `switches` switches.
    pub fn total_servers(&self, switches: usize) -> usize {
        switches * self.servers_per_switch
    }

    /// Validates internal consistency; called by the simulator constructor.
    pub fn validate(&self) {
        assert!(
            self.packet_length > 0,
            "packets must have at least one phit"
        );
        assert!(
            self.input_buffer_packets > 0,
            "input buffers cannot be empty"
        );
        assert!(
            self.output_buffer_packets > 0,
            "output buffers cannot be empty"
        );
        assert!(
            self.source_queue_packets > 0,
            "source queues cannot be empty"
        );
        assert!(self.crossbar_speedup > 0, "the crossbar must move packets");
        assert!(self.servers_per_switch > 0, "switches need servers");
        assert!(self.num_vcs > 0, "at least one VC is required");
        assert!(self.watchdog_cycles > 0, "the watchdog must be armed");
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults(8, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = SimConfig::paper_defaults(16, 4);
        assert_eq!(c.packet_length, 16);
        assert_eq!(c.input_buffer_packets, 8);
        assert_eq!(c.output_buffer_packets, 4);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.crossbar_latency, 1);
        assert_eq!(c.crossbar_speedup, 2);
        assert_eq!(c.servers_per_switch, 16);
        assert_eq!(c.num_vcs, 4);
        c.validate();
    }

    #[test]
    fn quick_config_shrinks_only_windows() {
        let q = SimConfig::quick(8, 6);
        let p = SimConfig::paper_defaults(8, 6);
        assert!(q.warmup_cycles < p.warmup_cycles);
        assert!(q.measure_cycles < p.measure_cycles);
        assert_eq!(q.packet_length, p.packet_length);
        assert_eq!(q.input_buffer_packets, p.input_buffer_packets);
    }

    #[test]
    fn rng_contract_defaults_to_v2() {
        assert_eq!(SimConfig::default().rng_contract, RngContract::V2Counting);
        assert_eq!(SimConfig::quick(8, 4).rng_contract, RngContract::V2Counting);
    }

    #[test]
    fn total_servers_scales_with_switches() {
        let c = SimConfig::paper_defaults(8, 6);
        assert_eq!(c.total_servers(512), 4096);
    }

    #[test]
    #[should_panic]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_vcs_rejected() {
        let mut c = SimConfig::default();
        c.num_vcs = 0;
        c.validate();
    }

    #[test]
    #[should_panic]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_packet_length_rejected() {
        let mut c = SimConfig::default();
        c.packet_length = 0;
        c.validate();
    }
}
