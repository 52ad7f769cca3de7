//! How servers generate packets: open-loop rate mode or closed-loop batch
//! mode.

/// How a server decides when to generate packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GenerationMode {
    /// Open loop: a Bernoulli trial per cycle with probability
    /// `offered_load / packet_length` (the offered load is expressed in
    /// phits/cycle/server, so one packet every `1/load · packet_length` cycles on average).
    Rate {
        /// Offered load in phits/cycle/server, in `[0, 1]`.
        offered_load: f64,
    },
    /// Closed loop (Figure 10): the server has a fixed quota of packets and
    /// generates as fast as its source queue allows until the quota is exhausted.
    Batch {
        /// Packets each server must send in total.
        packets_per_server: u64,
    },
}
