//! `dynamo-sim`'s arguments, stated once: [`FLAGS`] has one entry per
//! flag, and the command-line parser, `--help`, the per-kind range
//! checks, the checkpoint envelope (both directions) and the `--resume`
//! merge are each a loop over it. A new flag is one entry and one
//! [`Args`] field.

use std::path::PathBuf;

use dyngrid::GridScenario;
use serverpower::ServerGeneration;
use workloads::ServiceKind;

use Scope::{Run, Session, Universe};
use Slot::{
    Count, Generation, Kilowatts, Minutes, OptMinutes, Path, Preset, Real, Seed, Service, Switch,
};

#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub(crate) sbs: usize,
    pub(crate) rpps: usize,
    pub(crate) racks: usize,
    pub(crate) servers: usize,
    pub(crate) rpp_kw: Option<f64>,
    pub(crate) sb_kw: Option<f64>,
    pub(crate) msb_kw: Option<f64>,
    pub(crate) service: ServiceKind,
    pub(crate) generation: ServerGeneration,
    pub(crate) traffic: f64,
    pub(crate) minutes: u64,
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    pub(crate) phase_spread: f64,
    pub(crate) capping: bool,
    pub(crate) dry_run: bool,
    pub(crate) turbo: bool,
    pub(crate) report_every: u64,
    pub(crate) metrics_out: Option<PathBuf>,
    pub(crate) trace_out: Option<PathBuf>,
    pub(crate) incident_dir: Option<PathBuf>,
    pub(crate) report_out: Option<PathBuf>,
    pub(crate) fail_leaf: Option<u64>,
    pub(crate) checkpoint_every: Option<u64>,
    pub(crate) checkpoint_dir: Option<PathBuf>,
    pub(crate) resume: Option<PathBuf>,
    pub(crate) grid_scenario: Option<String>,
    pub(crate) grid_signal_file: Option<PathBuf>,
    pub(crate) profile_ticks: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sbs: 1,
            rpps: 2,
            racks: 2,
            servers: 20,
            rpp_kw: None,
            sb_kw: None,
            msb_kw: None,
            service: ServiceKind::Web,
            generation: ServerGeneration::Haswell2015,
            traffic: 1.2,
            minutes: 10,
            seed: 0,
            threads: 1,
            phase_spread: 0.0,
            capping: true,
            dry_run: false,
            turbo: false,
            report_every: 1,
            metrics_out: None,
            trace_out: None,
            incident_dir: None,
            report_out: None,
            fail_leaf: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            grid_scenario: None,
            grid_signal_file: None,
            profile_ticks: false,
        }
    }
}

/// What a checkpoint does with a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Defines the simulated universe: written to the envelope, refused
    /// on `--resume`.
    Universe,
    /// Run control and outputs: written to the envelope, and the
    /// resuming command line may override the stored value.
    Run,
    /// Belongs to one invocation: never in the envelope.
    Session,
}

/// A flag's field in [`Args`], tagged with its value kind: how its text
/// is read, what range it must lie in, and how it is written back.
pub(crate) enum Slot<'a> {
    /// A count of at least 1.
    Count(&'a mut usize),
    /// Whole minutes, at least 1.
    Minutes(&'a mut u64),
    /// Whole minutes, at least 1 when given.
    OptMinutes(&'a mut Option<u64>),
    /// A finite, positive rating when given.
    Kilowatts(&'a mut Option<f64>),
    /// A finite, non-negative number.
    Real(&'a mut f64),
    Seed(&'a mut u64),
    /// Free of control characters: the envelope is one `key=value` per
    /// line, and a line break inside a value would read back as keys.
    Path(&'a mut Option<PathBuf>),
    /// One of [`GridScenario::preset_names`].
    Preset(&'a mut Option<String>),
    Service(&'a mut ServiceKind),
    Generation(&'a mut ServerGeneration),
    /// Takes no value: on the command line its presence stores the
    /// second field. The envelope carries the field itself.
    Switch(&'a mut bool, bool),
}

impl Slot<'_> {
    /// What `--help` shows for the value — for a closed set of names,
    /// the names.
    fn metavar(&self) -> String {
        match self {
            Count(_) | Seed(_) => "N".into(),
            Minutes(_) | OptMinutes(_) => "MIN".into(),
            Kilowatts(_) => "KW".into(),
            Real(_) => "X".into(),
            Path(_) => "PATH".into(),
            Preset(_) => GridScenario::preset_names().join("|"),
            Service(_) => ServiceKind::all().map(ServiceKind::label).join("|"),
            Generation(_) => ServerGeneration::all()
                .map(ServerGeneration::label)
                .join("|"),
            Switch(..) => String::new(),
        }
    }

    /// Reads the value from its text — a command-line word or an
    /// envelope value — or returns `None` if it is not one.
    fn set(self, v: &str) -> Option<()> {
        match self {
            Count(x) => *x = v.parse().ok()?,
            Minutes(x) | Seed(x) => *x = v.parse().ok()?,
            OptMinutes(x) => *x = Some(v.parse().ok()?),
            Kilowatts(x) => *x = Some(v.parse().ok()?),
            Real(x) => *x = v.parse().ok()?,
            Path(x) => *x = Some(PathBuf::from(v)),
            Preset(x) => *x = Some(v.to_string()),
            Service(x) => *x = ServiceKind::all().into_iter().find(|k| k.label() == v)?,
            Generation(x) => *x = ServerGeneration::from_label(v)?,
            Switch(x, _) => *x = v.parse().ok()?,
        }
        Some(())
    }

    /// The kind's range check. The builder asserts these, so nothing
    /// outside them may reach it from a command line or an envelope.
    fn check(&self, flag: &str) -> Result<(), String> {
        let complaint = match self {
            Count(0) | Minutes(0) | OptMinutes(Some(0)) => "must be at least 1".to_string(),
            Kilowatts(Some(kw)) if !(kw.is_finite() && *kw > 0.0) => {
                "must be a positive number of kilowatts".to_string()
            }
            Real(x) if !(x.is_finite() && **x >= 0.0) => {
                "must be a finite, non-negative number".to_string()
            }
            Path(Some(p)) if p.to_string_lossy().contains(char::is_control) => {
                "must not contain control characters".to_string()
            }
            Preset(Some(name)) if !GridScenario::preset_names().contains(&name.as_str()) => {
                format!("must be one of {}, not '{name}'", self.metavar())
            }
            _ => return Ok(()),
        };
        Err(format!("{flag} {complaint}"))
    }

    /// The value as envelope text (floats in Rust's shortest
    /// round-trip form, so reading it back is exact); `None` for an
    /// optional value that is not set.
    fn text(&self) -> Option<String> {
        match self {
            Count(x) => Some(x.to_string()),
            Minutes(x) | Seed(x) => Some(x.to_string()),
            OptMinutes(x) => x.map(|m| m.to_string()),
            Kilowatts(x) => x.map(|kw| format!("{kw:?}")),
            Real(x) => Some(format!("{x:?}")),
            Path(x) => x.as_ref().map(|p| p.display().to_string()),
            Preset(x) => (**x).clone(),
            Service(x) => Some(x.label().to_string()),
            Generation(x) => Some(x.label().to_string()),
            Switch(x, _) => Some(x.to_string()),
        }
    }
}

/// One command-line flag.
pub(crate) struct Flag {
    /// The spelling, `--like-this`.
    pub(crate) name: &'static str,
    /// The envelope key, where it is not the spelling without `--` and
    /// with `_` for `-`.
    key: Option<&'static str>,
    /// Where the value lives, and its kind.
    pub(crate) slot: fn(&mut Args) -> Slot<'_>,
    pub(crate) scope: Scope,
    /// The `--help` section.
    group: &'static str,
    help: &'static str,
}

impl Flag {
    pub(crate) fn key(&self) -> String {
        self.key
            .map_or_else(|| self.name[2..].replace('-', "_"), str::to_string)
    }

    /// Reads `text` into this flag's field of `args`.
    fn read(&self, args: &mut Args, text: &str) -> Result<(), String> {
        (self.slot)(args).set(text).ok_or_else(|| {
            let expected = (self.slot)(args).metavar();
            format!(
                "invalid value '{text}' for {}: expected {expected}",
                self.name
            )
        })
    }
}

const fn flag(
    name: &'static str,
    slot: fn(&mut Args) -> Slot<'_>,
    scope: Scope,
    group: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        key: None,
        slot,
        scope,
        group,
        help,
    }
}

/// Every flag, in envelope order. One row a flag, so the rows stay
/// comparable: spelling, field and kind, scope, `--help` section, help.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    flag("--sbs", |a| Count(&mut a.sbs), Universe, "topology", "switchboards per MSB"),
    flag("--rpps", |a| Count(&mut a.rpps), Universe, "topology", "RPPs per switchboard"),
    flag("--racks", |a| Count(&mut a.racks), Universe, "topology", "racks per RPP"),
    flag("--servers", |a| Count(&mut a.servers), Universe, "topology", "servers per rack"),
    flag("--rpp-kw", |a| Kilowatts(&mut a.rpp_kw), Universe, "ratings", "RPP rating (OCP: 190 kW)"),
    flag("--sb-kw", |a| Kilowatts(&mut a.sb_kw), Universe, "ratings", "SB rating (OCP: 1.25 MW)"),
    flag("--msb-kw", |a| Kilowatts(&mut a.msb_kw), Universe, "ratings", "MSB rating (OCP: 2.5 MW)"),
    flag("--service", |a| Service(&mut a.service), Universe, "workload", "what every server runs"),
    flag("--generation", |a| Generation(&mut a.generation), Universe, "workload", "the hardware"),
    flag("--traffic", |a| Real(&mut a.traffic), Universe, "workload", "load, 1.0 = nominal"),
    flag("--minutes", |a| Minutes(&mut a.minutes), Run, "run", "simulated minutes to run"),
    flag("--seed", |a| Seed(&mut a.seed), Universe, "run", "same seed and flags, same output"),
    flag("--threads", |a| Count(&mut a.threads), Run, "run",
         "worker threads, capped at the host's cores; results are bit-identical at any count"),
    flag("--phase-spread", |a| Real(&mut a.phase_spread), Universe, "run",
         "stagger controller cycle phases evenly across X seconds; 0 = lockstep"),
    Flag {
        key: Some("capping"),
        ..flag("--no-capping", |a| Switch(&mut a.capping, false), Universe, "modes", "monitor only")
    },
    flag("--dry-run", |a| Switch(&mut a.dry_run, true), Universe, "modes", "decide, never actuate"),
    flag("--turbo", |a| Switch(&mut a.turbo, true), Universe, "modes", "Turbo Boost on"),
    flag("--report-every", |a| Minutes(&mut a.report_every), Run, "output", "status line cadence"),
    flag("--metrics-out", |a| Path(&mut a.metrics_out), Run, "output", "Prometheus exposition"),
    flag("--trace-out", |a| Path(&mut a.trace_out), Run, "output",
         "chrome-tracing JSON of controller cycles"),
    flag("--incident-dir", |a| Path(&mut a.incident_dir), Run, "output",
         "flight-recorder incident dumps"),
    flag("--report-out", |a| Path(&mut a.report_out), Session, "output",
         "the final report, for byte diffs"),
    flag("--profile-ticks", |a| Switch(&mut a.profile_ticks, true), Session, "output",
         "time each tick phase (dynamo_tick_phase_seconds) and print the attribution table"),
    flag("--fail-leaf", |a| OptMinutes(&mut a.fail_leaf), Universe, "faults",
         "crash the first leaf controller's primary at the start of that minute"),
    flag("--checkpoint-every", |a| OptMinutes(&mut a.checkpoint_every), Session, "snapshots",
         "write a versioned snapshot of every stateful layer at that cadence"),
    flag("--checkpoint-dir", |a| Path(&mut a.checkpoint_dir), Session, "snapshots",
         "where to (default: checkpoints)"),
    flag("--resume", |a| Path(&mut a.resume), Session, "snapshots",
         "continue a checkpointed run, bit-identical to the unbroken one"),
    flag("--grid-scenario", |a| Preset(&mut a.grid_scenario), Universe, "grid",
         "deploy the grid-interactive layer under a utility-signal preset"),
    flag("--grid-signal-file", |a| Path(&mut a.grid_signal_file), Universe, "grid",
         "or under a schedule file: lines of 'start_s price_per_mwh frequency_hz curtail_frac|-'"),
];

impl Args {
    pub(crate) fn observing(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.incident_dir.is_some()
            // The profiler observes into the registry's tick-phase
            // histograms, so it needs recording on.
            || self.profile_ticks
    }

    /// Every check on the arguments, shared by the command line and the
    /// checkpoint envelope (which is outside input too): each flag's
    /// kind, then the rules that span flags.
    pub(crate) fn validate(&self) -> Result<(), String> {
        // The table's one accessor per flag borrows mutably — the
        // parser writes through it — so reading goes over a copy.
        let mut copy = self.clone();
        for f in FLAGS {
            (f.slot)(&mut copy).check(f.name)?;
        }
        // Server ids are `u32`.
        let fleet = [self.rpps, self.racks, self.servers]
            .iter()
            .try_fold(self.sbs, |n, &k| n.checked_mul(k));
        if fleet.is_none_or(|n| u32::try_from(n).is_err()) {
            return Err(format!(
                "--sbs x --rpps x --racks x --servers is a fleet of more than {} servers",
                u32::MAX
            ));
        }
        if let Some(m) = self.fail_leaf.filter(|&m| m > self.minutes) {
            return Err(format!(
                "--fail-leaf must be between 1 and --minutes ({}), got {m}",
                self.minutes
            ));
        }
        if self.grid_scenario.is_some() && self.grid_signal_file.is_some() {
            return Err(
                "--grid-scenario and --grid-signal-file are mutually exclusive".to_string(),
            );
        }
        Ok(())
    }
}

/// Applies a command line onto `args`. When `resuming`, `args` came
/// from a checkpoint and a [`Scope::Universe`] flag is refused.
fn apply(args: &mut Args, argv: &[String], resuming: bool) -> Result<(), String> {
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            return Err("help".to_string());
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == word)
            .ok_or_else(|| format!("unknown flag '{word}' (try --help)"))?;
        if resuming && flag.scope == Universe {
            return Err(format!(
                "{word} cannot be changed on --resume; it is fixed by the checkpoint"
            ));
        }
        match (flag.slot)(args) {
            Switch(field, on) => *field = on,
            _ => {
                let value = words
                    .next()
                    .ok_or_else(|| format!("{word} needs a value"))?;
                flag.read(args, value)?;
            }
        }
    }
    args.validate()
}

pub(crate) fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    apply(&mut args, argv, false)?;
    Ok(args)
}

/// The arguments a resumed run continues under: the checkpoint's
/// `stored` ones with the resuming command line applied on top.
/// Universe-defining flags are refused; everything else the command
/// line gives wins. The result is checked as a whole — each side passed
/// alone, but the mix (a shorter horizon under a stored `--fail-leaf`)
/// must too, or this run writes envelopes it would itself refuse.
pub(crate) fn merge_resume_args(mut stored: Args, argv: &[String]) -> Result<Args, String> {
    apply(&mut stored, argv, true)?;
    stored.resume = None;
    Ok(stored)
}

pub(crate) fn usage() -> String {
    let mut out =
        String::from("dynamo-sim: simulate a datacenter under the Dynamo power control plane\n");
    let mut defaults = Args::default();
    let mut group = "";
    for f in FLAGS {
        if f.group != group {
            group = f.group;
            out += &format!("\n{group}:\n");
        }
        let slot = (f.slot)(&mut defaults);
        let default = match &slot {
            Switch(..) => None,
            slot => slot.text(),
        };
        out += format!("  {} {}", f.name, slot.metavar()).trim_end();
        out += &format!("\n      {}", f.help);
        out += &default.map_or("\n".to_string(), |d| format!(" (default: {d})\n"));
    }
    for (scope, does) in [(Universe, "fixes"), (Run, "keeps, unless given again,")] {
        let names = FLAGS.iter().filter(|f| f.scope == scope).map(|f| f.name);
        let names: Vec<&str> = names.collect();
        out += &format!("\n--resume: the checkpoint {does}\n  {}\n", names.join(" "));
    }
    out += "\nreplay:\n  dynamo-sim replay --incident FILE --from SNAPSHOT [--out DIR]\n      \
            re-execute an incident window from the nearest checkpoint and verify the\n      \
            regenerated dump is byte-identical";
    out
}

/// Renders the arguments a checkpoint must carry as deterministic
/// `key=value` lines, in table order.
pub(crate) fn envelope_of(args: &Args) -> String {
    let mut copy = args.clone();
    let mut envelope = String::new();
    for f in FLAGS.iter().filter(|f| f.scope != Session) {
        if let Some(value) = (f.slot)(&mut copy).text() {
            envelope += &format!("{}={value}\n", f.key());
        }
    }
    envelope
}

/// Parses an envelope back into [`Args`]. Unknown keys are an error —
/// an envelope written by a newer binary must fail loudly, not be
/// half-applied — and so is a repeated key: [`envelope_of`] writes each
/// once, so a second occurrence is not its work.
pub(crate) fn args_from_envelope(envelope: &str) -> Result<Args, String> {
    let mut args = Args::default();
    let mut seen: Vec<&str> = Vec::new();
    for line in envelope.lines().filter(|l| !l.is_empty()) {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed envelope line '{line}'"))?;
        if seen.contains(&k) {
            return Err(format!("envelope key '{k}' appears twice"));
        }
        seen.push(k);
        let flag = FLAGS
            .iter()
            .find(|f| f.scope != Session && f.key() == k)
            .ok_or_else(|| {
                format!("unknown envelope key '{k}' — checkpoint written by a newer dynamo-sim?")
            })?;
        flag.read(&mut args, v)?;
    }
    args.validate()?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_apply_with_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.servers, 20);
        assert!(a.capping);
        assert!(!a.dry_run);
        assert_eq!(a.service, ServiceKind::Web);
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse(&[
            "--sbs",
            "2",
            "--rpps",
            "3",
            "--racks",
            "4",
            "--servers",
            "10",
            "--rpp-kw",
            "12.5",
            "--service",
            "hadoop",
            "--generation",
            "westmere2011",
            "--traffic",
            "1.5",
            "--minutes",
            "30",
            "--seed",
            "9",
            "--threads",
            "4",
            "--no-capping",
            "--turbo",
        ])
        .unwrap();
        assert_eq!((a.sbs, a.rpps, a.racks, a.servers), (2, 3, 4, 10));
        assert_eq!(a.rpp_kw, Some(12.5));
        assert_eq!(a.service, ServiceKind::Hadoop);
        assert_eq!(a.generation, ServerGeneration::Westmere2011);
        assert!(!a.capping && a.turbo);
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn unknown_flag_and_missing_value_error() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--servers"]).is_err());
        assert!(parse(&["--servers", "lots"]).is_err());
        assert!(parse(&["--service", "excel"]).is_err());
        assert!(parse(&["--minutes", "0"]).is_err());
    }

    #[test]
    fn out_of_range_values_are_errors_naming_the_flag() {
        for (flag, bad) in [
            ("--sbs", "0"),
            ("--rpps", "0"),
            ("--racks", "0"),
            ("--servers", "0"),
            ("--rpp-kw", "0"),
            ("--rpp-kw", "-5"),
            ("--rpp-kw", "inf"),
            ("--sb-kw", "-1"),
            ("--msb-kw", "-1"),
            ("--traffic", "NaN"),
            ("--traffic", "-1"),
        ] {
            let e = parse(&[flag, bad]).unwrap_err();
            assert!(e.contains(flag), "{flag} {bad}: {e}");
        }
        assert!(parse(&["--traffic", "0"]).is_ok());
    }

    #[test]
    fn envelope_applies_the_same_range_checks() {
        let good = envelope_of(&parse(&[]).unwrap());
        assert!(args_from_envelope(&good).is_ok());
        for bad in [
            "threads=0",
            "minutes=0",
            "report_every=0",
            "phase_spread=NaN",
            "fail_leaf=0",
            "fail_leaf=11",
            "servers=0",
            "sbs=0",
            "rpp_kw=-5.0",
            "msb_kw=0.0",
            "traffic=NaN",
            "traffic=-1.0",
        ] {
            let key = bad.split_once('=').unwrap().0;
            let mut lines: Vec<&str> = good
                .lines()
                .filter(|l| l.split_once('=').unwrap().0 != key)
                .collect();
            lines.push(bad);
            let r = args_from_envelope(&lines.join("\n"));
            assert!(r.is_err(), "{bad} was accepted");
        }
    }

    /// A line break in a path would write an envelope whose extra lines
    /// read back as keys of their own — a resumed run on another
    /// universe.
    #[test]
    fn a_path_cannot_forge_envelope_keys() {
        for (flag, value) in [
            ("--trace-out", "t.json\ntraffic=0.1"),
            ("--metrics-out", "out.prom\nservers=9"),
            ("--incident-dir", "inc\r"),
            ("--report-out", "r\u{85}.txt"),
            ("--checkpoint-dir", "cps\t"),
            ("--resume", "cp\n.snap"),
            ("--grid-signal-file", "sig\n.txt"),
        ] {
            let e = parse(&[flag, value]).unwrap_err();
            assert!(e.contains(flag), "{flag}: {e}");
        }
        let e = args_from_envelope("grid_scenario=brown\tout\n").unwrap_err();
        assert!(e.contains("--grid-scenario"), "{e}");
        // Whoever wrote it, a key is read once.
        let e = args_from_envelope("traffic=1.2\ntraffic=0.1\n").unwrap_err();
        assert!(e.contains("'traffic' appears twice"), "{e}");
    }

    /// Arguments drawn to sit on every side of every check, with the
    /// fields the envelope does not carry left at their defaults.
    fn random_args(rng: &mut dcsim::SimRng) -> Args {
        fn count(rng: &mut dcsim::SimRng) -> u64 {
            rng.next_below(12)
        }
        fn real(rng: &mut dcsim::SimRng) -> f64 {
            const REALS: [f64; 10] = [
                0.0,
                -0.0,
                0.1,
                0.30000000000000004,
                1.5,
                5e-324,
                f64::MAX,
                -1.0,
                f64::NAN,
                f64::INFINITY,
            ];
            let valid_only = rng.chance(0.9);
            REALS[rng.next_below(if valid_only { 7 } else { 10 }) as usize]
        }
        fn text(rng: &mut dcsim::SimRng) -> String {
            const CHARS: [char; 12] = [
                'a', 'Z', '7', '/', '.', '=', ' ', 'é', '\u{2028}', '\n', '\r', '\u{85}',
            ];
            let hazards = if rng.chance(0.8) { 9 } else { 12 };
            (0..rng.next_below(6))
                .map(|_| CHARS[rng.next_below(hazards) as usize])
                .collect()
        }
        fn maybe<T>(rng: &mut dcsim::SimRng, draw: fn(&mut dcsim::SimRng) -> T) -> Option<T> {
            rng.chance(0.5).then(|| draw(rng))
        }
        let mut a = Args {
            sbs: count(rng) as usize,
            rpps: count(rng) as usize,
            racks: count(rng) as usize,
            servers: count(rng) as usize,
            rpp_kw: maybe(rng, real),
            sb_kw: maybe(rng, real),
            msb_kw: maybe(rng, real),
            service: ServiceKind::all()[rng.next_below(ServiceKind::COUNT as u64) as usize],
            generation: ServerGeneration::all()[rng.next_below(4) as usize],
            traffic: real(rng),
            minutes: count(rng),
            seed: rng.next_u64(),
            threads: count(rng) as usize,
            phase_spread: real(rng),
            capping: rng.chance(0.5),
            dry_run: rng.chance(0.5),
            turbo: rng.chance(0.5),
            report_every: count(rng),
            metrics_out: maybe(rng, text).map(PathBuf::from),
            trace_out: maybe(rng, text).map(PathBuf::from),
            incident_dir: maybe(rng, text).map(PathBuf::from),
            fail_leaf: maybe(rng, count),
            ..Args::default()
        };
        match rng.next_below(4) {
            0 => a.grid_scenario = Some(text(rng)),
            1 => a.grid_signal_file = Some(PathBuf::from(text(rng))),
            _ => {}
        }
        a
    }

    #[test]
    fn the_envelope_reproduces_every_accepted_argument_set() {
        let mut rng = dcsim::SimRng::seed_from(20);
        let (mut accepted, mut refused_for_text) = (0, 0);
        for case in 0..4000 {
            let a = random_args(&mut rng);
            match a.validate() {
                Ok(()) => {
                    let back = args_from_envelope(&envelope_of(&a))
                        .unwrap_or_else(|e| panic!("case {case}: {a:?} read back as: {e}"));
                    assert_eq!(format!("{back:?}"), format!("{a:?}"), "case {case}");
                    accepted += 1;
                }
                Err(e) => refused_for_text += usize::from(e.contains("control characters")),
            }
        }
        assert!(
            accepted > 200 && refused_for_text > 50,
            "{accepted} / {refused_for_text}"
        );
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
        assert!(usage().contains("--no-capping"));
        assert!(usage().contains("--phase-spread"));
        assert!(usage().contains("--checkpoint-every"));
        assert!(usage().contains("--resume"));
        assert!(usage().contains("replay"));
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&[
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.json",
            "--incident-dir",
            "incidents",
            "--fail-leaf",
            "3",
        ])
        .unwrap();
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.prom")));
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(a.incident_dir, Some(PathBuf::from("incidents")));
        assert_eq!(a.fail_leaf, Some(3));
        assert!(usage().contains("--metrics-out"));
        assert!(usage().contains("--fail-leaf"));
    }

    #[test]
    fn profile_ticks_flag_parses_and_stays_out_of_the_envelope() {
        assert!(!parse(&[]).unwrap().profile_ticks);
        let a = parse(&["--profile-ticks"]).unwrap();
        assert!(a.profile_ticks);
        // Profiling observes into the registry, so it must switch
        // recording on by itself.
        assert!(a.observing());
        // It is a run-control/output flag: keeping it out of the
        // checkpoint envelope means old binaries keep reading new
        // checkpoints (the envelope rejects unknown keys).
        assert!(!envelope_of(&a).contains("profile"));
        assert!(usage().contains("--profile-ticks"));
    }

    #[test]
    fn fail_leaf_is_bounded_by_minutes() {
        assert!(parse(&["--fail-leaf", "0"]).is_err());
        assert!(parse(&["--minutes", "5", "--fail-leaf", "6"]).is_err());
        assert!(parse(&["--minutes", "5", "--fail-leaf", "5"]).is_ok());
    }

    #[test]
    fn phase_spread_parses_and_rejects_bad_values() {
        assert_eq!(parse(&[]).unwrap().phase_spread, 0.0);
        assert_eq!(parse(&["--phase-spread", "1.5"]).unwrap().phase_spread, 1.5);
        assert!(parse(&["--phase-spread"]).is_err());
        assert!(parse(&["--phase-spread", "-2"]).is_err());
        assert!(parse(&["--phase-spread", "NaN"]).is_err());
    }

    #[test]
    fn checkpoint_flags_parse() {
        let a = parse(&[
            "--checkpoint-every",
            "5",
            "--checkpoint-dir",
            "cps",
            "--report-out",
            "report.txt",
        ])
        .unwrap();
        assert_eq!(a.checkpoint_every, Some(5));
        assert_eq!(a.checkpoint_dir, Some(PathBuf::from("cps")));
        assert_eq!(a.report_out, Some(PathBuf::from("report.txt")));
        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        let r = parse(&["--resume", "cps/checkpoint-00005.snap"]).unwrap();
        assert_eq!(r.resume, Some(PathBuf::from("cps/checkpoint-00005.snap")));
    }

    #[test]
    fn envelope_round_trips_every_field() {
        let a = parse(&[
            "--sbs",
            "2",
            "--rpps",
            "3",
            "--racks",
            "4",
            "--servers",
            "10",
            "--rpp-kw",
            "12.5",
            "--msb-kw",
            "2600.0",
            "--service",
            "hadoop",
            "--generation",
            "westmere2011",
            "--traffic",
            "1.5",
            "--minutes",
            "30",
            "--seed",
            "9",
            "--threads",
            "4",
            "--phase-spread",
            "2.25",
            "--no-capping",
            "--turbo",
            "--metrics-out",
            "m.prom",
            "--incident-dir",
            "incidents",
            "--fail-leaf",
            "3",
        ])
        .unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(envelope_of(&back), envelope_of(&a));
        assert_eq!(back.rpp_kw, Some(12.5));
        assert_eq!(back.msb_kw, Some(2600.0));
        assert_eq!(back.phase_spread, 2.25);
        assert_eq!(back.service, ServiceKind::Hadoop);
        assert_eq!(back.fail_leaf, Some(3));
        assert!(!back.capping && back.turbo);
    }

    #[test]
    fn envelope_rejects_unknown_keys() {
        let e = args_from_envelope("sbs=1\nflux_capacitor=88\n").unwrap_err();
        assert!(e.contains("flux_capacitor"), "{e}");
    }

    #[test]
    fn resume_freezes_universe_flags() {
        let argv: Vec<String> = ["--resume", "x.snap", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = merge_resume_args(Args::default(), &argv).unwrap_err();
        assert!(e.contains("--seed"), "{e}");

        let argv: Vec<String> = ["--resume", "x.snap", "--minutes", "40", "--threads", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let merged = merge_resume_args(Args::default(), &argv).unwrap();
        assert_eq!(merged.minutes, 40);
        assert_eq!(merged.threads, 8);
        assert_eq!(merged.seed, 0, "stored seed wins");
        assert!(merged.resume.is_none());

        // A horizon cut below the stored fault minute is refused now,
        // not by the next resume of a checkpoint this run would write.
        let stored = parse(&["--minutes", "8", "--fail-leaf", "5"]).unwrap();
        let argv: Vec<String> = ["--resume", "x.snap", "--minutes", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = merge_resume_args(stored, &argv).unwrap_err();
        assert!(e.contains("--fail-leaf"), "{e}");
    }

    #[test]
    fn grid_flags_parse_and_validate() {
        let a = parse(&["--grid-scenario", "curtailment-window"]).unwrap();
        assert_eq!(a.grid_scenario.as_deref(), Some("curtailment-window"));
        assert!(a.grid_signal_file.is_none());
        let a = parse(&["--grid-signal-file", "sig.txt"]).unwrap();
        assert_eq!(a.grid_signal_file, Some(PathBuf::from("sig.txt")));
        assert!(parse(&["--grid-scenario", "blackout"]).is_err());
        assert!(parse(&[
            "--grid-scenario",
            "brownout",
            "--grid-signal-file",
            "sig.txt"
        ])
        .is_err());
        assert!(usage().contains("--grid-scenario"));
        assert!(usage().contains("--grid-signal-file"));
    }

    #[test]
    fn grid_flags_round_trip_the_envelope_and_freeze_on_resume() {
        let a = parse(&["--grid-scenario", "brownout"]).unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(back.grid_scenario.as_deref(), Some("brownout"));
        let a = parse(&["--grid-signal-file", "sig.txt"]).unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(back.grid_signal_file, Some(PathBuf::from("sig.txt")));

        let argv: Vec<String> = ["--resume", "x.snap", "--grid-scenario", "brownout"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = merge_resume_args(Args::default(), &argv).unwrap_err();
        assert!(e.contains("--grid-scenario"), "{e}");
    }

    /// What the table promises, flag by flag: it parses, `--help` lists
    /// it, and a checkpoint treats it as its scope says.
    #[test]
    fn every_flag_parses_is_listed_and_keeps_its_scope() {
        let help = usage();
        for f in FLAGS {
            let sample = match (f.slot)(&mut Args::default()) {
                Count(_) | Minutes(_) | OptMinutes(_) | Seed(_) => Some("3"),
                Kilowatts(_) | Real(_) => Some("12.5"),
                Path(_) => Some("some/path"),
                Preset(_) => Some("brownout"),
                Service(_) => Some("hadoop"),
                Generation(_) => Some("westmere2011"),
                Switch(..) => None,
            };
            let words: Vec<&str> = std::iter::once(f.name).chain(sample).collect();
            let mut given = parse(&words).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            let value = (f.slot)(&mut given).text();
            assert_ne!(value, (f.slot)(&mut Args::default()).text(), "{}", f.name);
            assert!(help.contains(&format!("\n  {}", f.name)), "{}", f.name);

            let envelope = envelope_of(&given);
            let line = format!("{}={}\n", f.key(), value.clone().unwrap());
            let mut back = args_from_envelope(&envelope).unwrap();
            if f.scope == Session {
                assert!(!envelope.contains(&format!("{}=", f.key())), "{}", f.name);
                assert_ne!((f.slot)(&mut back).text(), value, "{}", f.name);
            } else {
                assert!(envelope.contains(&line), "{}: {envelope}", f.name);
                assert_eq!((f.slot)(&mut back).text(), value, "{}", f.name);
            }

            let mut argv = vec!["--resume".to_string(), "x.snap".to_string()];
            argv.extend(words.iter().map(|w| w.to_string()));
            let merged = merge_resume_args(Args::default(), &argv);
            if f.scope == Universe {
                let e = merged.unwrap_err();
                assert!(e.contains(f.name) && e.contains("--resume"), "{e}");
            } else if f.name != "--resume" {
                assert_eq!((f.slot)(&mut merged.unwrap()).text(), value, "{}", f.name);
            }
        }
    }

    /// The envelope of a full flag set, as the binary before the flag
    /// table wrote it: every key, in order, to the byte.
    #[test]
    fn envelope_text_is_pinned() {
        let a = parse(&[
            "--sbs",
            "2",
            "--rpps",
            "3",
            "--racks",
            "4",
            "--servers",
            "10",
            "--rpp-kw",
            "12.5",
            "--sb-kw",
            "80",
            "--msb-kw",
            "2600",
            "--service",
            "hadoop",
            "--generation",
            "westmere2011",
            "--traffic",
            "1.5",
            "--minutes",
            "2",
            "--seed",
            "9",
            "--threads",
            "4",
            "--phase-spread",
            "2.25",
            "--no-capping",
            "--dry-run",
            "--turbo",
            "--report-every",
            "5",
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.json",
            "--incident-dir",
            "incidents",
            "--fail-leaf",
            "2",
            "--grid-scenario",
            "brownout",
            "--report-out",
            "r.txt",
            "--profile-ticks",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            "cps",
        ])
        .unwrap();
        assert_eq!(
            envelope_of(&a),
            "sbs=2\nrpps=3\nracks=4\nservers=10\nrpp_kw=12.5\nsb_kw=80.0\nmsb_kw=2600.0\n\
             service=hadoop\ngeneration=westmere2011\ntraffic=1.5\nminutes=2\nseed=9\n\
             threads=4\nphase_spread=2.25\ncapping=false\ndry_run=true\nturbo=true\n\
             report_every=5\nmetrics_out=m.prom\ntrace_out=t.json\nincident_dir=incidents\n\
             fail_leaf=2\ngrid_scenario=brownout\n"
        );
    }

    /// Server ids are `u32`: a fleet that does not fit them is refused
    /// before anything is sized by it, wherever the numbers come from.
    #[test]
    fn a_fleet_that_does_not_fit_its_ids_is_refused() {
        for words in [
            &["--servers", "18446744073709551615"][..],
            &["--servers", "3000000000", "--racks", "2", "--rpps", "1"],
            &[
                "--sbs",
                "65536",
                "--rpps",
                "65536",
                "--racks",
                "1",
                "--servers",
                "1",
            ],
        ] {
            let e = parse(words).unwrap_err();
            assert!(e.contains("--servers") && e.contains("--sbs"), "{e}");
        }
        assert!(parse(&[
            "--sbs",
            "1",
            "--rpps",
            "1",
            "--racks",
            "1",
            "--servers",
            "4294967295"
        ])
        .is_ok());
        let good = envelope_of(&parse(&[]).unwrap());
        let forged = good.replace("servers=20", "servers=18446744073709551615");
        let e = args_from_envelope(&forged).unwrap_err();
        assert!(e.contains("--servers"), "{e}");
    }
}
