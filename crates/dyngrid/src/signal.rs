//! The utility side of the meter as a deterministic signal schedule.
//!
//! A [`GridScenario`] is a piecewise-constant schedule of
//! [`GridSignal`]s: wholesale price, grid frequency, and an optional
//! curtailment window expressed as a *fraction of site contractual
//! capacity* so the same preset scales from a one-RPP test rig to the
//! full 30 MW site. Signals are a pure function of simulated time —
//! nothing here needs snapshotting; a resumed run re-reads the same
//! schedule at the same clock.

use dcsim::SimTime;

/// Nominal wholesale price used when a scenario says nothing else
/// ($/MWh; a round mid-market number, not a market model).
pub const NOMINAL_PRICE: f64 = 40.0;

/// Nominal grid frequency (Hz, 60 Hz interconnection).
pub const NOMINAL_FREQUENCY_HZ: f64 = 60.0;

/// The utility signal in force at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSignal {
    /// Wholesale energy price ($/MWh).
    pub price_per_mwh: f64,
    /// Grid frequency (Hz). Below nominal means generation is short.
    pub frequency_hz: f64,
    /// Utility-imposed feed limit as a fraction of site contractual
    /// capacity, when a curtailment window is active.
    pub curtail_frac: Option<f64>,
}

impl GridSignal {
    /// The quiet-grid signal: nominal price and frequency, no
    /// curtailment.
    pub fn nominal() -> Self {
        GridSignal {
            price_per_mwh: NOMINAL_PRICE,
            frequency_hz: NOMINAL_FREQUENCY_HZ,
            curtail_frac: None,
        }
    }
}

/// One piece of a scenario: `signal` holds from `start` until the next
/// segment's start (or forever, for the last segment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSegment {
    /// When this signal takes effect.
    pub start: SimTime,
    /// The signal in force.
    pub signal: GridSignal,
}

/// A named, deterministic utility-signal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct GridScenario {
    name: String,
    /// Ascending by `start`; the first segment starts at `SimTime::ZERO`.
    segments: Vec<GridSegment>,
}

impl GridScenario {
    /// Builds a scenario from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, unsorted, or does not start at
    /// time zero.
    pub fn from_segments(name: impl Into<String>, segments: Vec<GridSegment>) -> Self {
        assert!(!segments.is_empty(), "scenario needs at least one segment");
        assert_eq!(
            segments[0].start,
            SimTime::ZERO,
            "first segment must start at t=0"
        );
        for pair in segments.windows(2) {
            assert!(
                pair[0].start < pair[1].start,
                "segments must be strictly ascending by start"
            );
        }
        for s in &segments {
            if let Some(f) = s.signal.curtail_frac {
                assert!(f > 0.0 && f <= 1.0, "curtail fraction {f} outside (0, 1]");
            }
            assert!(s.signal.frequency_hz > 0.0, "non-positive frequency");
            assert!(s.signal.price_per_mwh.is_finite(), "non-finite price");
        }
        GridScenario {
            name: name.into(),
            segments,
        }
    }

    /// A quiet grid forever — the scenario a grid-enabled site runs when
    /// nothing is happening (the idle-overhead baseline).
    pub fn nominal() -> Self {
        GridScenario::from_segments(
            "nominal",
            vec![GridSegment {
                start: SimTime::ZERO,
                signal: GridSignal::nominal(),
            }],
        )
    }

    /// The named scenario presets.
    pub fn preset_names() -> [&'static str; 5] {
        [
            "nominal",
            "brownout",
            "curtailment-window",
            "frequency-excursion",
            "price-spike",
        ]
    }

    /// Looks up a named preset. Times are chosen so every preset's
    /// event fits comfortably in a 30–60 simulated-minute run.
    pub fn preset(name: &str) -> Option<Self> {
        let seg = |secs: u64, price: f64, hz: f64, curtail: Option<f64>| GridSegment {
            start: SimTime::from_secs(secs),
            signal: GridSignal {
                price_per_mwh: price,
                frequency_hz: hz,
                curtail_frac: curtail,
            },
        };
        let nominal = |secs| seg(secs, NOMINAL_PRICE, NOMINAL_FREQUENCY_HZ, None);
        Some(match name {
            "nominal" => GridScenario::nominal(),
            // A 10-minute utility curtailment call: feed capped at 80%
            // of site contractual capacity from t=300 s to t=900 s.
            "curtailment-window" => GridScenario::from_segments(
                name,
                vec![
                    nominal(0),
                    seg(300, NOMINAL_PRICE, NOMINAL_FREQUENCY_HZ, Some(0.80)),
                    nominal(900),
                ],
            ),
            // A sustained regional shortfall: deep curtailment with
            // depressed frequency and elevated price for 30 minutes.
            "brownout" => GridScenario::from_segments(
                name,
                vec![
                    nominal(0),
                    seg(240, 120.0, 59.90, Some(0.70)),
                    nominal(2040),
                ],
            ),
            // An under-frequency excursion (generator trip elsewhere):
            // no explicit curtailment order, the droop response sheds.
            "frequency-excursion" => GridScenario::from_segments(
                name,
                vec![
                    nominal(0),
                    seg(300, NOMINAL_PRICE, 59.75, None),
                    seg(420, NOMINAL_PRICE, 59.90, None),
                    nominal(480),
                ],
            ),
            // A 20-minute price spike: economic shedding, no hard limit.
            "price-spike" => GridScenario::from_segments(
                name,
                vec![
                    nominal(0),
                    seg(600, 400.0, NOMINAL_FREQUENCY_HZ, None),
                    nominal(1800),
                ],
            ),
            _ => return None,
        })
    }

    /// Parses the signal-file format: one segment per line,
    /// `start_s price_per_mwh frequency_hz curtail_frac`, where the
    /// curtail column is `-` for "no curtailment". Blank lines and
    /// `#` comments are skipped.
    ///
    /// ```text
    /// # a 5-minute 75% curtailment starting at t=120 s
    /// 0    40.0  60.0  -
    /// 120  40.0  60.0  0.75
    /// 420  40.0  60.0  -
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, String> {
        let mut segments = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 fields (start_s price freq curtail), got {}",
                    lineno + 1,
                    fields.len()
                ));
            }
            let parse_f = |s: &str, what: &str| {
                s.parse::<f64>()
                    .map_err(|_| format!("line {}: bad {what} '{s}'", lineno + 1))
            };
            let start = parse_f(fields[0], "start")?;
            // Whole seconds that fit `SimTime`'s milliseconds.
            if start < 0.0 || start.fract() != 0.0 || start >= (u64::MAX / 1000) as f64 {
                return Err(format!(
                    "line {}: start must be a non-negative whole second",
                    lineno + 1
                ));
            }
            // What `from_segments` asserts: `nan` and `inf` parse as
            // floats, and `freq <= 0.0` alone lets NaN through.
            let price = parse_f(fields[1], "price")?;
            if !price.is_finite() {
                return Err(format!("line {}: non-finite price", lineno + 1));
            }
            let freq = parse_f(fields[2], "frequency")?;
            if !(freq.is_finite() && freq > 0.0) {
                return Err(format!(
                    "line {}: frequency must be finite and positive",
                    lineno + 1
                ));
            }
            let curtail = if fields[3] == "-" {
                None
            } else {
                let f = parse_f(fields[3], "curtail fraction")?;
                if !(f > 0.0 && f <= 1.0) {
                    return Err(format!(
                        "line {}: curtail fraction {f} outside (0, 1]",
                        lineno + 1
                    ));
                }
                Some(f)
            };
            let start = SimTime::from_secs(start as u64);
            if let Some(prev) = segments.last() {
                let prev: &GridSegment = prev;
                if start <= prev.start {
                    return Err(format!(
                        "line {}: segment starts must be strictly ascending",
                        lineno + 1
                    ));
                }
            } else if start != SimTime::ZERO {
                return Err("first segment must start at t=0".to_string());
            }
            segments.push(GridSegment {
                start,
                signal: GridSignal {
                    price_per_mwh: price,
                    frequency_hz: freq,
                    curtail_frac: curtail,
                },
            });
        }
        if segments.is_empty() {
            return Err("signal file has no segments".to_string());
        }
        Ok(GridScenario {
            name: name.into(),
            segments,
        })
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segments, ascending by start.
    pub fn segments(&self) -> &[GridSegment] {
        &self.segments
    }

    /// The signal in force at `now`. A binary search over the segment
    /// starts: allocation-free and stateless, so the per-tick lookup
    /// costs nothing on the steady path and resumes exactly.
    pub fn signal_at(&self, now: SimTime) -> &GridSignal {
        let idx = self.segments.partition_point(|s| s.start <= now);
        &self.segments[idx - 1].signal
    }

    /// Whether any segment ever deviates from the nominal signal — a
    /// scenario that never does lets callers skip event tracking
    /// entirely.
    pub fn has_activity(&self) -> bool {
        self.segments
            .iter()
            .any(|s| s.signal != GridSignal::nominal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_unknown_does_not() {
        for name in GridScenario::preset_names() {
            let s = GridScenario::preset(name).expect(name);
            assert_eq!(s.name(), name);
            assert_eq!(s.segments()[0].start, SimTime::ZERO);
        }
        assert!(GridScenario::preset("rolling-blackout").is_none());
    }

    #[test]
    fn signal_lookup_is_piecewise_constant() {
        let s = GridScenario::preset("curtailment-window").unwrap();
        assert_eq!(s.signal_at(SimTime::ZERO).curtail_frac, None);
        assert_eq!(s.signal_at(SimTime::from_secs(299)).curtail_frac, None);
        assert_eq!(
            s.signal_at(SimTime::from_secs(300)).curtail_frac,
            Some(0.80)
        );
        assert_eq!(
            s.signal_at(SimTime::from_secs(899)).curtail_frac,
            Some(0.80)
        );
        assert_eq!(s.signal_at(SimTime::from_secs(900)).curtail_frac, None);
        assert_eq!(s.signal_at(SimTime::from_secs(86_400)).curtail_frac, None);
    }

    #[test]
    fn nominal_has_no_activity_and_presets_do() {
        assert!(!GridScenario::nominal().has_activity());
        for name in ["brownout", "curtailment-window", "price-spike"] {
            assert!(GridScenario::preset(name).unwrap().has_activity());
        }
    }

    #[test]
    fn parses_signal_file_round_trip() {
        let text = "# comment\n0 40 60 -\n120 42.5 59.9 0.75\n\n420 40 60 -\n";
        let s = GridScenario::parse("custom", text).unwrap();
        assert_eq!(s.segments().len(), 3);
        assert_eq!(
            s.signal_at(SimTime::from_secs(200)).curtail_frac,
            Some(0.75)
        );
        assert_eq!(s.signal_at(SimTime::from_secs(200)).frequency_hz, 59.9);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (text, needle) in [
            ("", "no segments"),
            ("5 40 60 -", "start at t=0"),
            ("0 40 60 -\n0 40 60 -", "ascending"),
            ("0 40 60 1.5", "outside"),
            ("0 40 60", "4 fields"),
            ("0 forty 60 -", "bad price"),
            ("0 40 0 -", "frequency"),
            ("0 40 60 -\n1e300 40 60 -", "line 2: start"),
            ("0 nan 60 -", "line 1: non-finite price"),
            ("0 40 60 -\n60 inf 60 -", "line 2: non-finite price"),
            ("0 42 inf -", "line 1: frequency"),
            ("0 42 NaN 1", "line 1: frequency"),
        ] {
            let err = GridScenario::parse("bad", text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_segments_panic() {
        let seg = |t| GridSegment {
            start: SimTime::from_secs(t),
            signal: GridSignal::nominal(),
        };
        GridScenario::from_segments("bad", vec![seg(0), seg(10), seg(5)]);
    }
}
