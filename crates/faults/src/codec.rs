//! A deterministic text codec for scheduled adversary actions.
//!
//! The search subsystem commits shrunk adversary plans as reviewable
//! reproducer files, so fault events need a serialization that (a)
//! round-trips exactly, (b) diffs cleanly, and (c) rejects out-of-bounds
//! plans at decode time instead of panicking mid-simulation. The format
//! is one event per line, in one of two spellings:
//!
//! ```text
//! fault <at_ns> <action-keyword> [key=value ...]
//! manip <at_ns> <victim> <kind> <value>
//! ```
//!
//! e.g. `fault 40000000000 partition-pair a=1 b=0` or
//! `manip 30000000000 2 scale-rate 1.00005`. The `manip` spelling is the
//! one a [`FaultAction::ManipulateTsc`] takes, and no other action takes
//! it. Addresses (and a `manip` victim) are raw [`Addr`] values (`0` is
//! the TA, `1..=n` the nodes); durations and instants are nanoseconds;
//! floats use Rust's shortest-round-trip `Display`, so
//! `decode(encode(x)) == x` holds exactly (see the proptest below).

use netsim::Addr;
use runtime::TscManipulation;
use sim::{SimDuration, SimTime};

use crate::plan::{FaultAction, FaultEvent};

/// The strict reader over the `key=value` tokens of one reproducer-format
/// line, shared by every keyed decoder of the format ([`FaultAction`],
/// `scenario::AttackSpec`, `search::{Fitness, GenomeSpace}`). The text
/// comes from files outside the program, so a token that is not
/// `key=value`, a key given twice, a missing or unparseable value and —
/// at [`Fields::finish`] — a key no decoder asked for are all errors.
#[derive(Debug)]
pub struct Fields<'a> {
    tokens: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits `s` on whitespace into `key=value` tokens.
    ///
    /// # Errors
    ///
    /// Names the first token without a `=` or the first repeated key.
    pub fn new(s: &'a str) -> Result<Self, String> {
        let mut tokens: Vec<(&str, &str)> = Vec::new();
        for token in s.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            if tokens.iter().any(|&(seen, _)| seen == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            tokens.push((key, value));
        }
        Ok(Fields { tokens })
    }

    /// Splits a `keyword key=value ...` line into its keyword (empty for
    /// a blank line) and the fields after it.
    ///
    /// # Errors
    ///
    /// As [`Fields::new`].
    pub fn after_keyword(s: &'a str) -> Result<(&'a str, Self), String> {
        let s = s.trim_start();
        let (keyword, rest) = s.split_once(char::is_whitespace).unwrap_or((s, ""));
        Ok((keyword, Fields::new(rest)?))
    }

    /// Takes `key`'s value as text.
    ///
    /// # Errors
    ///
    /// Fails when the key is absent.
    pub fn raw(&mut self, key: &str) -> Result<&'a str, String> {
        let i = self
            .tokens
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key}"))?;
        Ok(self.tokens.swap_remove(i).1)
    }

    /// Takes and parses `key`'s value.
    ///
    /// # Errors
    ///
    /// Fails when the key is absent or its value does not parse.
    pub fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let value = self.raw(key)?;
        value.parse().map_err(|_| format!("unparseable field {key}: {value:?}"))
    }

    /// Takes `key` as a raw [`Addr`].
    ///
    /// # Errors
    ///
    /// As [`Fields::parse`].
    pub fn addr(&mut self, key: &str) -> Result<Addr, String> {
        Ok(Addr(self.parse::<u16>(key)?))
    }

    /// Takes `key` as a duration in nanoseconds.
    ///
    /// # Errors
    ///
    /// As [`Fields::parse`].
    pub fn duration(&mut self, key: &str) -> Result<SimDuration, String> {
        Ok(SimDuration::from_nanos(self.parse::<u64>(key)?))
    }

    /// Ends the line: every field must have been taken.
    ///
    /// # Errors
    ///
    /// Names the first field the decoder never asked for.
    pub fn finish(self) -> Result<(), String> {
        match self.tokens.first() {
            None => Ok(()),
            Some((key, _)) => Err(format!("unknown field {key:?}")),
        }
    }
}

impl FaultAction {
    /// Encodes the action without its timestamp: `<victim> <kind> <value>`
    /// for a TSC manipulation, `keyword key=value ...` for the rest.
    fn encode(&self) -> String {
        match self {
            FaultAction::PartitionPair { a, b } => format!("partition-pair a={} b={}", a.0, b.0),
            FaultAction::PartitionLink { src, dst } => {
                format!("partition-link src={} dst={}", src.0, dst.0)
            }
            FaultAction::HealPair { a, b } => format!("heal-pair a={} b={}", a.0, b.0),
            FaultAction::HealLink { src, dst } => format!("heal-link src={} dst={}", src.0, dst.0),
            FaultAction::SetLinkLoss { src, dst, loss } => {
                format!("set-link-loss src={} dst={} loss={}", src.0, dst.0, loss)
            }
            FaultAction::ClearLinkLoss { src, dst } => {
                format!("clear-link-loss src={} dst={}", src.0, dst.0)
            }
            FaultAction::SetDuplication { probability } => {
                format!("set-duplication p={probability}")
            }
            FaultAction::SetReordering { probability, window } => {
                format!("set-reordering p={} window={}", probability, window.as_nanos())
            }
            FaultAction::TaOutage => "ta-outage".to_string(),
            FaultAction::TaRestore => "ta-restore".to_string(),
            FaultAction::CrashNode { node } => format!("crash node={node}"),
            FaultAction::RestartNode { node } => format!("restart node={node}"),
            FaultAction::AexStorm { node, count, spacing } => {
                let target = node.map(|i| i.to_string()).unwrap_or_else(|| "all".to_string());
                format!("aex-storm node={target} count={count} spacing={}", spacing.as_nanos())
            }
            FaultAction::StartLie { node, offset_ns, equivocate } => {
                format!("start-lie node={node} offset={offset_ns} equivocate={equivocate}")
            }
            FaultAction::StopLie { node } => format!("stop-lie node={node}"),
            FaultAction::ManipulateTsc { node, manipulation } => {
                format!("{} {}", node + 1, manipulation.encode())
            }
        }
    }

    /// Decodes the `<victim> <kind> <value>` of a `manip` line.
    fn decode_manipulation(s: &str) -> Result<FaultAction, String> {
        let (victim, manipulation) =
            s.split_once(' ').ok_or_else(|| "missing manipulation".to_string())?;
        let victim: u16 = victim.parse().map_err(|_| format!("unparseable victim {victim:?}"))?;
        let node = usize::from(victim)
            .checked_sub(1)
            .ok_or_else(|| "victim 0 is the TA, whose clock is the reference".to_string())?;
        Ok(FaultAction::ManipulateTsc {
            node,
            manipulation: TscManipulation::decode(manipulation)?,
        })
    }

    /// Decodes the `keyword key=value ...` of a `fault` line.
    fn decode(s: &str) -> Result<FaultAction, String> {
        let (keyword, mut f) = Fields::after_keyword(s)?;
        let action = match keyword {
            "partition-pair" => FaultAction::PartitionPair { a: f.addr("a")?, b: f.addr("b")? },
            "partition-link" => {
                FaultAction::PartitionLink { src: f.addr("src")?, dst: f.addr("dst")? }
            }
            "heal-pair" => FaultAction::HealPair { a: f.addr("a")?, b: f.addr("b")? },
            "heal-link" => FaultAction::HealLink { src: f.addr("src")?, dst: f.addr("dst")? },
            "set-link-loss" => FaultAction::SetLinkLoss {
                src: f.addr("src")?,
                dst: f.addr("dst")?,
                loss: f.parse("loss")?,
            },
            "clear-link-loss" => {
                FaultAction::ClearLinkLoss { src: f.addr("src")?, dst: f.addr("dst")? }
            }
            "set-duplication" => FaultAction::SetDuplication { probability: f.parse("p")? },
            "set-reordering" => FaultAction::SetReordering {
                probability: f.parse("p")?,
                window: f.duration("window")?,
            },
            "ta-outage" => FaultAction::TaOutage,
            "ta-restore" => FaultAction::TaRestore,
            "crash" => FaultAction::CrashNode { node: f.parse("node")? },
            "restart" => FaultAction::RestartNode { node: f.parse("node")? },
            "aex-storm" => FaultAction::AexStorm {
                node: match f.raw("node")? {
                    "all" => None,
                    i => Some(i.parse().map_err(|_| "unparseable field node".to_string())?),
                },
                count: f.parse("count")?,
                spacing: f.duration("spacing")?,
            },
            "start-lie" => FaultAction::StartLie {
                node: f.parse("node")?,
                offset_ns: f.parse("offset")?,
                equivocate: f.parse("equivocate")?,
            },
            "stop-lie" => FaultAction::StopLie { node: f.parse("node")? },
            other => return Err(format!("unknown fault action {other:?}")),
        };
        f.finish()?;
        Ok(action)
    }

    /// Bounds-checks the action against an `n_nodes` cluster (addresses
    /// `0` = TA, `1..=n_nodes` = nodes; probabilities in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        let addr_ok = |a: Addr| -> Result<(), String> {
            if (a.0 as usize) <= n_nodes {
                Ok(())
            } else {
                Err(format!("address {} outside 0..={n_nodes}", a.0))
            }
        };
        let node_ok = |i: usize| -> Result<(), String> {
            if i < n_nodes {
                Ok(())
            } else {
                Err(format!("node index {i} outside 0..{n_nodes}"))
            }
        };
        let prob_ok = |p: f64, what: &str| -> Result<(), String> {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{what} {p} outside [0, 1]"))
            }
        };
        match *self {
            FaultAction::PartitionPair { a, b } | FaultAction::HealPair { a, b } => {
                addr_ok(a)?;
                addr_ok(b)
            }
            FaultAction::PartitionLink { src, dst }
            | FaultAction::HealLink { src, dst }
            | FaultAction::ClearLinkLoss { src, dst } => {
                addr_ok(src)?;
                addr_ok(dst)
            }
            FaultAction::SetLinkLoss { src, dst, loss } => {
                addr_ok(src)?;
                addr_ok(dst)?;
                prob_ok(loss, "loss")
            }
            FaultAction::SetDuplication { probability } => prob_ok(probability, "probability"),
            FaultAction::SetReordering { probability, .. } => prob_ok(probability, "probability"),
            FaultAction::TaOutage | FaultAction::TaRestore => Ok(()),
            FaultAction::CrashNode { node }
            | FaultAction::RestartNode { node }
            | FaultAction::StopLie { node } => node_ok(node),
            FaultAction::AexStorm { node, count, .. } => {
                if let Some(i) = node {
                    node_ok(i)?;
                }
                if count == 0 {
                    return Err("aex-storm count must be >= 1".to_string());
                }
                Ok(())
            }
            FaultAction::StartLie { node, .. } => node_ok(node),
            FaultAction::ManipulateTsc { node, manipulation } => {
                node_ok(node)?;
                manipulation.validate()
            }
        }
    }
}

impl FaultEvent {
    /// Encodes as one reproducer line: `manip <at_ns> <victim> <kind>
    /// <value>` for a TSC manipulation, `fault <at_ns> <action>` for the
    /// rest.
    pub fn encode(&self) -> String {
        let class = match self.action {
            FaultAction::ManipulateTsc { .. } => "manip",
            _ => "fault",
        };
        format!("{class} {} {}", self.at.as_nanos(), self.action.encode())
    }

    /// Decodes one `fault` or `manip` line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn decode(s: &str) -> Result<FaultEvent, String> {
        let mut parts = s.trim().splitn(3, ' ');
        let (class, at, action) = match (parts.next(), parts.next(), parts.next()) {
            (Some(class), Some(at), Some(action)) => (class, at, action),
            _ => return Err(format!("expected '<fault|manip> <at_ns> <action>': {s:?}")),
        };
        let at = at.parse().map_err(|_| format!("unparseable timestamp {at:?}"))?;
        let action = match class {
            "fault" => FaultAction::decode(action)?,
            "manip" => FaultAction::decode_manipulation(action)?,
            other => return Err(format!("unknown event class {other:?}")),
        };
        Ok(FaultEvent { at: SimTime::from_nanos(at), action })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_actions() -> Vec<FaultAction> {
        vec![
            FaultAction::PartitionPair { a: Addr(1), b: Addr(0) },
            FaultAction::PartitionLink { src: Addr(2), dst: Addr(3) },
            FaultAction::HealPair { a: Addr(1), b: Addr(0) },
            FaultAction::HealLink { src: Addr(2), dst: Addr(3) },
            FaultAction::SetLinkLoss { src: Addr(0), dst: Addr(1), loss: 0.9 },
            FaultAction::ClearLinkLoss { src: Addr(0), dst: Addr(1) },
            FaultAction::SetDuplication { probability: 0.05 },
            FaultAction::SetReordering { probability: 0.1, window: SimDuration::from_millis(2) },
            FaultAction::TaOutage,
            FaultAction::TaRestore,
            FaultAction::CrashNode { node: 0 },
            FaultAction::RestartNode { node: 2 },
            FaultAction::AexStorm { node: None, count: 8, spacing: SimDuration::from_millis(200) },
            FaultAction::AexStorm {
                node: Some(1),
                count: 3,
                spacing: SimDuration::from_millis(50),
            },
            FaultAction::StartLie { node: 1, offset_ns: -250_000_000, equivocate: true },
            FaultAction::StopLie { node: 1 },
            FaultAction::ManipulateTsc {
                node: 1,
                manipulation: TscManipulation::OffsetJump(-29_000_000),
            },
            FaultAction::ManipulateTsc {
                node: 0,
                manipulation: TscManipulation::ScaleRate(1.000_05),
            },
        ]
    }

    #[test]
    fn every_action_round_trips() {
        for action in sample_actions() {
            let ev = FaultEvent { at: SimTime::from_secs(42), action };
            let encoded = ev.encode();
            assert_eq!(FaultEvent::decode(&encoded).as_ref(), Ok(&ev), "{encoded}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FaultAction::decode("warp-core-breach node=1").is_err());
        assert!(FaultAction::decode("crash").is_err());
        assert!(FaultAction::decode("crash node=banana").is_err());
        assert!(FaultEvent::decode("fault ta-outage").is_err());
        assert!(FaultEvent::decode("5 ta-outage").is_err(), "the class word is required");
        assert!(FaultEvent::decode("glitch 5 ta-outage").is_err());
        assert!(FaultAction::decode("").is_err());
    }

    /// A TSC manipulation has exactly one spelling, the positional `manip`
    /// line committed reproducers carry; the keyed `fault` form has no
    /// keyword for it.
    #[test]
    fn manip_lines_round_trip_byte_for_byte_and_reject_garbage() {
        for line in [
            "manip 30000000000 2 scale-rate 1.000045111111905",
            "manip 87000000000 2 offset-jump 1",
            "manip 20000000000 3 set-rate-hz 2903583121.180945",
            "manip 1 1 offset-jump -29000000",
        ] {
            let ev = FaultEvent::decode(line).expect(line);
            assert!(matches!(ev.action, FaultAction::ManipulateTsc { .. }), "{line}");
            assert_eq!(ev.encode(), line);
        }
        assert_eq!(
            FaultEvent::decode("manip 5 3 offset-jump 7"),
            Ok(FaultEvent {
                at: SimTime::from_nanos(5),
                action: FaultAction::ManipulateTsc {
                    node: 2,
                    manipulation: TscManipulation::OffsetJump(7)
                },
            })
        );
        for bad in [
            "manip 5 1",
            "manip x 1 offset-jump 5",
            "manip 5 1 scale-rate -1",
            "manip 5 0 offset-jump 1",
            "manip 5 -1 offset-jump 1",
            "fault 5 1 offset-jump 5",
        ] {
            assert!(FaultEvent::decode(bad).is_err(), "{bad}");
        }
        let above = FaultEvent::decode("manip 5 4 offset-jump 1").expect("decodes");
        assert!(above.action.validate(3).is_err(), "victim 4 in a 3-node cluster");
        assert!(above.action.validate(4).is_ok());
    }

    #[test]
    fn fields_are_strict_about_unknown_and_repeated_keys() {
        assert!(FaultAction::decode("crash node=1").is_ok());
        assert!(FaultAction::decode("crash node=1 bogus=2").is_err());
        assert!(FaultAction::decode("crash node=1 node=2").is_err());
        assert!(FaultAction::decode("ta-outage node=1").is_err());
        assert!(FaultEvent::decode("fault 5 partition-pair a=1 b=0 a=1").is_err());

        let mut f = Fields::new("b=2  a=1").expect("two fields, any order");
        assert_eq!((f.parse::<u8>("a"), f.raw("b")), (Ok(1), Ok("2")));
        assert!(f.raw("a").is_err(), "a field is taken once");
        assert_eq!(f.finish(), Ok(()));
        let (keyword, f) = Fields::after_keyword("  crash\tnode=1").expect("keyword + field");
        assert_eq!((keyword, f.finish()), ("crash", Err("unknown field \"node\"".to_string())));
        assert!(Fields::new("a").is_err() && Fields::new("a=1 a=1").is_err());
    }

    #[test]
    fn validate_enforces_cluster_bounds() {
        assert!(FaultAction::CrashNode { node: 2 }.validate(3).is_ok());
        assert!(FaultAction::CrashNode { node: 3 }.validate(3).is_err());
        assert!(FaultAction::PartitionPair { a: Addr(3), b: Addr(0) }.validate(3).is_ok());
        assert!(FaultAction::PartitionPair { a: Addr(4), b: Addr(0) }.validate(3).is_err());
        assert!(FaultAction::SetLinkLoss { src: Addr(0), dst: Addr(1), loss: 1.5 }
            .validate(3)
            .is_err());
        assert!(FaultAction::AexStorm { node: None, count: 0, spacing: SimDuration::ZERO }
            .validate(3)
            .is_err());
        assert!(FaultAction::RestartNode { node: 5 }.validate(3).is_err());
        assert!(FaultAction::RestartNode { node: 5 }.validate(6).is_ok());
    }

    /// Strategy over arbitrary (not merely sample) actions, floats
    /// included: Rust's `Display` for `f64` is shortest-round-trip, so
    /// the codec must be exact for any probability.
    fn arb_action() -> impl Strategy<Value = FaultAction> {
        prop_oneof![
            (0..8u16, 0..8u16)
                .prop_map(|(a, b)| FaultAction::PartitionPair { a: Addr(a), b: Addr(b) }),
            (0..8u16, 0..8u16, 0.0..=1.0f64).prop_map(|(s, d, loss)| FaultAction::SetLinkLoss {
                src: Addr(s),
                dst: Addr(d),
                loss
            }),
            (0.0..=1.0f64).prop_map(|probability| FaultAction::SetDuplication { probability }),
            (0.0..=1.0f64, 0..10_000_000_000u64).prop_map(|(probability, w)| {
                FaultAction::SetReordering { probability, window: SimDuration::from_nanos(w) }
            }),
            Just(FaultAction::TaOutage),
            Just(FaultAction::TaRestore),
            (0..8usize).prop_map(|node| FaultAction::CrashNode { node }),
            (0..8usize).prop_map(|node| FaultAction::RestartNode { node }),
            (proptest::option::of(0..8usize), 1..50u32, 0..1_000_000_000u64).prop_map(
                |(node, count, s)| FaultAction::AexStorm {
                    node,
                    count,
                    spacing: SimDuration::from_nanos(s)
                }
            ),
            (0..8usize, any::<i64>(), any::<bool>()).prop_map(|(node, offset_ns, equivocate)| {
                FaultAction::StartLie { node, offset_ns, equivocate }
            }),
            (0..8usize).prop_map(|node| FaultAction::StopLie { node }),
            (0..8usize, any::<i64>()).prop_map(|(node, ticks)| FaultAction::ManipulateTsc {
                node,
                manipulation: TscManipulation::OffsetJump(ticks)
            }),
            (0..8usize, 1e-6..1e6f64).prop_map(|(node, factor)| FaultAction::ManipulateTsc {
                node,
                manipulation: TscManipulation::ScaleRate(factor)
            }),
            (0..8usize, 1.0..1e12f64).prop_map(|(node, hz)| FaultAction::ManipulateTsc {
                node,
                manipulation: TscManipulation::SetRateHz(hz)
            }),
        ]
    }

    proptest! {
        #[test]
        fn decode_encode_is_identity(at in 0..u64::MAX / 2, action in arb_action()) {
            let ev = FaultEvent { at: SimTime::from_nanos(at), action };
            let encoded = ev.encode();
            let decoded = FaultEvent::decode(&encoded).unwrap();
            prop_assert_eq!(&ev, &decoded);
            prop_assert_eq!(encoded, decoded.encode());
        }
    }
}
