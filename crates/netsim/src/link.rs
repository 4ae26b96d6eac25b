//! Transmission media connecting hosts.
//!
//! The attack scenario in the paper is a victim and an attacker sharing a
//! public WiFi network while the web server sits across the Internet. Two
//! medium kinds cover this: a *shared wireless* medium on which every
//! attached station (including the attacker's tap) receives a copy of every
//! frame, and a *switched* medium on which only the addressed host receives
//! the packet.

use crate::time::Duration;

/// Identifier of a medium within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MediumId(pub u64);

/// The broadcast/visibility behaviour of a medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediumKind {
    /// Open wireless network: eavesdroppers attached to the medium observe
    /// every packet (the paper's public-WiFi attacker model, §III).
    SharedWireless,
    /// Switched / wired network: only the destination receives the packet;
    /// taps attached here observe nothing.
    Switched,
    /// A wide-area path (the Internet between the access network and the web
    /// server). Behaves like `Switched` but typically has a much larger
    /// latency, which is what gives the local attacker its head start in the
    /// injection race.
    WideArea,
}

/// A transmission medium with a one-way latency and optional jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Medium {
    /// Identifier.
    pub id: MediumId,
    /// Kind of medium.
    pub kind: MediumKind,
    /// One-way propagation plus serialisation latency applied to every packet.
    pub latency: Duration,
    /// Maximum extra per-packet delay drawn uniformly from `[0, jitter]` by
    /// the simulator's seeded RNG. Zero (the default) disables jitter and
    /// keeps delivery times byte-identical to the jitter-free simulator.
    pub jitter: Duration,
}

impl Medium {
    /// Creates a medium with zero jitter.
    pub fn new(id: MediumId, kind: MediumKind, latency: Duration) -> Self {
        Medium {
            id,
            kind,
            latency,
            jitter: Duration::ZERO,
        }
    }

    /// Returns `true` if taps attached to this medium can observe traffic.
    pub fn observable(&self) -> bool {
        matches!(self.kind, MediumKind::SharedWireless)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_shared_wireless_is_observable() {
        let wifi = Medium::new(MediumId(0), MediumKind::SharedWireless, Duration::from_micros(500));
        let wired = Medium::new(MediumId(1), MediumKind::Switched, Duration::from_micros(100));
        let wan = Medium::new(MediumId(2), MediumKind::WideArea, Duration::from_millis(40));
        assert!(wifi.observable());
        assert!(!wired.observable());
        assert!(!wan.observable());
    }
}
