//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation, and drives the scenario, fleet, tournament,
//! chaos, crashdrill, bench and profile runs.
//!
//! ```text
//! usage: figures [table1|table2|fig1..fig10|all]...
//!        figures scenario <name|file.scn>... [--list] [--checkpoint <dir>] [--checkpoint-every N] [--stop-after N] [--resume <file>] [--warm-start <file>]
//!        figures profile <name|file.scn>
//!        figures fleet [<tenants>] [--list] [--seed N] [--cold N] [--chunk N] [--radius D] [--no-control] [--checkpoint <dir>] [--stop-after N] [--resume <file>] [--warm-start <file>]
//!        figures tournament [<scenarios>] [--seed N] [--profile calm|brisk|stormy] [--out <dir>]
//!        figures chaos [<seed>...] [--iterations N]
//!        figures crashdrill [<seed>...] [--iterations N]
//!        figures bench [--out <path>] [--check <committed.json>]
//! global flags, anywhere on the line: [--quick] [--quiet] [--serve <addr>]
//! ```
//!
//! That synopsis is printed from [`COMMANDS`], the one table every
//! invocation is parsed against: each command's flags (and whether they
//! take a value), the operands it takes, and the function that runs it.
//! No command walks the raw argument list. A malformed invocation exits
//! 2 with the command's usage line; unreadable or mismatched inputs
//! exit 2 as well; chaos invariant violations, crashdrill failures and
//! bench regressions exit 1.
//!
//! With no command, `figures` runs every paper table and figure. `--quick`
//! shrinks intervals and iterations for a smoke run; `--quiet` (or
//! `RAC_OBS=off`) silences the stderr progress chatter without touching
//! the stdout report or the on-disk artifacts; `--serve <addr>` exposes
//! `/metrics`, `/healthz` and `/profile` over HTTP while the run
//! executes. `RAC_THREADS=N` sets the worker count.
//!
//! Defaults: `fleet` runs 200 tenants from seed 42, cold wave =
//! tenants/4, chunks of 25, transfer radius 0.005 (the max squared
//! feature distance a donor may sit at; >= 2.0 accepts any donor);
//! `--no-control` skips the matched cold-control run each warm tenant
//! gets. `tournament` runs 200 generated scenarios from seed 42 with
//! difficulty cycling calm/brisk/stormy. `chaos` and `crashdrill` run
//! their pinned seeds for 24 iterations. `bench` writes `BENCH_9.json`;
//! `--check` compares against a committed report instead and writes
//! nothing.
//!
//! # Crash-safe scenario runs
//!
//! ```text
//! figures scenario flash-crowd --checkpoint ckpts
//! figures scenario flash-crowd --checkpoint ckpts --stop-after 10
//! figures scenario flash-crowd --resume ckpts/scenario-flash-crowd.ckpt
//! figures scenario diurnal --warm-start ckpts/scenario-flash-crowd.ckpt
//! ```
//!
//! `--checkpoint <dir>` snapshots the whole tuner line-up (learned
//! state, recorded series, decision-trace prefix) to
//! `<dir>/scenario-<name>.ckpt` every `--checkpoint-every N` (default 5)
//! line-up iterations, atomically. `--stop-after N` exits cleanly after
//! N iterations; `--resume <file>` picks the run back up and finishes
//! it, producing CSV and trace output byte-identical to an
//! uninterrupted run. `--warm-start <file>` seeds a fresh run's RAC
//! agent with the policy library stored in a previous run's checkpoint
//! instead of training/loading one from the cache.
//!
//! Each command prints the series/rows the paper reports and writes a
//! CSV under `results/` in the current directory. Offline-trained
//! policies are cached under `results/cache/`.
//!
//! With `RAC_OBS=trace`, each figure additionally drops a deterministic
//! decision trace at `results/<cmd>.trace.jsonl` (replay it with the
//! `inspect_trace` bin), and every run writes a metrics snapshot to
//! `results/metrics.prom` + `results/metrics.csv` unless observability
//! is off.
//!
//! Independent figure jobs run **concurrently** on the global parallel
//! runner (`RAC_THREADS` workers; see `rac::runner`), each buffering its
//! report so output appears in submission order with per-job wall-clock
//! timing — byte-identical to a serial run at any thread count. The
//! shared policy library is built once up front; measurement-level
//! fan-out inside each figure goes through the same runner, so points
//! shared between figures (e.g. the default configuration) simulate
//! only once per process.

mod bench;
mod chaos;
mod fleet;
mod paper;
mod scenario;
mod tournament;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use obs::{Console, TraceWriter};
use rac_bench::output::TextTable;
use simkernel::SimDuration;
use Operands::{Count, Experiments, Nothing, Scenarios, Seeds};

/// Global run options.
#[derive(Debug, Clone)]
struct Options {
    /// Shrink intervals/iterations for a fast smoke run.
    quick: bool,
    results_dir: PathBuf,
}

impl Options {
    fn interval(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 90 } else { 300 })
    }

    fn warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 120 } else { 600 })
    }

    fn iters(&self, full: usize) -> usize {
        if self.quick {
            (full / 3).max(5)
        } else {
            full
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.results_dir.join("cache")
    }
}

/// What a flag's value must be. The parser checks every value against
/// its kind, so a command's getters never see a malformed one.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Any string; the text says what it names.
    Text(&'static str),
    Positive,
    Unsigned,
    PositiveNumber,
    Difficulty,
}

impl Kind {
    fn what(self) -> &'static str {
        match self {
            Kind::Text(what) => what,
            Kind::Positive => "a positive integer",
            Kind::Unsigned => "an unsigned integer",
            Kind::PositiveNumber => "a positive number",
            Kind::Difficulty => "one of: calm, brisk, stormy",
        }
    }

    fn accepts(self, v: &str) -> bool {
        match self {
            Kind::Text(_) => true,
            Kind::Positive => v.parse::<usize>().is_ok_and(|n| n > 0),
            Kind::Unsigned => v.parse::<u64>().is_ok(),
            Kind::PositiveNumber => v.parse::<f64>().is_ok_and(|d| d > 0.0),
            Kind::Difficulty => ::scenario::Difficulty::by_name(v).is_some(),
        }
    }
}

/// Every flag, grouped by the kind of value it takes (`None`: no
/// value). A flag means the same in every command whose usage names it.
#[rustfmt::skip]
const FLAGS: &[(&[&str], Option<Kind>)] = &[
    (&["--quick", "--quiet", "--list", "--no-control"], None),
    (&["--checkpoint", "--resume", "--warm-start", "--out", "--check"], Some(Kind::Text("a path"))),
    (&["--checkpoint-every", "--stop-after", "--cold", "--chunk"], Some(Kind::Positive)),
    (&["--seed", "--iterations"], Some(Kind::Unsigned)),
    (&["--radius"], Some(Kind::PositiveNumber)),
    (&["--profile"], Some(Kind::Difficulty)),
    (&["--serve"], Some(Kind::Text("a bind address, e.g. 127.0.0.1:9898 (port 0 = auto)"))),
];

/// The flags every command takes, anywhere on the line.
const GLOBAL_USAGE: &str = "[--quick] [--quiet] [--serve <addr>]";

/// The operands a command takes.
#[derive(Debug, Clone, Copy)]
enum Operands {
    Nothing,
    /// Paper table/figure names, or `all`.
    Experiments,
    /// Bundled scenario names or `.scn` paths.
    Scenarios,
    /// RNG seeds; none means the command's pinned seeds.
    Seeds,
    /// At most one positive integer, named by the noun.
    Count(&'static str),
}

/// One `figures` command: how it is invoked and what runs it.
struct Command {
    name: &'static str,
    operands: Operands,
    run: fn(&Args, &Options, &Console) -> Result<(), Failure>,
    /// The usage line after `figures `. The flags it names are the ones
    /// the command takes besides the global ones.
    usage: &'static str,
}

/// Every command. The first entry runs the paper's tables and figures;
/// it also runs when the first operand names no command.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "figures", operands: Experiments, run: paper::run,
        usage: "[table1|table2|fig1..fig10|all]..." },
    Command { name: "scenario", operands: Scenarios, run: scenario::run,
        usage: "scenario <name|file.scn>... [--list] [--checkpoint <dir>] [--checkpoint-every N] \
                [--stop-after N] [--resume <file>] [--warm-start <file>]" },
    Command { name: "profile", operands: Scenarios, run: scenario::profile,
        usage: "profile <name|file.scn>" },
    Command { name: "fleet", operands: Count("tenant-count"), run: fleet::run,
        usage: "fleet [<tenants>] [--list] [--seed N] [--cold N] [--chunk N] [--radius D] \
                [--no-control] [--checkpoint <dir>] [--stop-after N] [--resume <file>] \
                [--warm-start <file>]" },
    Command { name: "tournament", operands: Count("scenario-count"), run: tournament::run,
        usage: "tournament [<scenarios>] [--seed N] [--profile calm|brisk|stormy] [--out <dir>]" },
    Command { name: "chaos", operands: Seeds, run: chaos::chaos,
        usage: "chaos [<seed>...] [--iterations N]" },
    Command { name: "crashdrill", operands: Seeds, run: chaos::crashdrill,
        usage: "crashdrill [<seed>...] [--iterations N]" },
    Command { name: "bench", operands: Nothing, run: bench::run,
        usage: "bench [--out <path>] [--check <committed.json>]" },
];

fn synopsis() -> String {
    let lines: Vec<String> = COMMANDS
        .iter()
        .map(|c| format!("figures {}", c.usage))
        .collect();
    let lines = lines.join("\n       ");
    format!("usage: {lines}\nglobal flags, anywhere on the line: {GLOBAL_USAGE}")
}

/// Why a command failed: the process exit code and the stderr message.
struct Failure {
    code: i32,
    msg: String,
}

impl Failure {
    fn new(code: i32, msg: impl Into<String>) -> Failure {
        let msg = msg.into();
        Failure { code, msg }
    }

    fn exit(self) -> ! {
        eprintln!("{}", self.msg);
        std::process::exit(self.code)
    }
}

impl Command {
    fn takes(&self, flag: &str) -> bool {
        [GLOBAL_USAGE, self.usage]
            .iter()
            .flat_map(|usage| usage.split(['[', ']', ' ']))
            .any(|word| word == flag)
    }

    /// A malformed invocation: the message, then this command's usage —
    /// the whole synopsis for the default command, which also catches
    /// misspelled command names.
    fn misuse(&self, msg: impl std::fmt::Display) -> Failure {
        let usage = match self.operands {
            Operands::Experiments => synopsis(),
            _ => format!("usage: figures {}", self.usage),
        };
        Failure::new(2, format!("{msg}\n{usage}"))
    }

    fn check_operands(&self, operands: &[String]) -> Result<(), Failure> {
        let bad = |ok: fn(&str) -> bool| operands.iter().find(|op| !ok(op));
        let msg = match self.operands {
            Operands::Nothing => operands
                .first()
                .map(|op| format!("unknown {} argument `{op}`", self.name)),
            Operands::Experiments => bad(|op| op == "all" || paper::EXPERIMENTS.contains(&op))
                .map(|op| format!("unknown experiment: {op}")),
            Operands::Scenarios => None,
            Operands::Seeds => bad(|op| Kind::Unsigned.accepts(op))
                .map(|op| format!("seeds need unsigned integers, got `{op}`")),
            Operands::Count(noun) => match operands.get(1) {
                Some(op) => Some(format!(
                    "{} takes at most one {noun} operand, got a second: `{op}`",
                    self.name
                )),
                None => bad(|op| Kind::Positive.accepts(op))
                    .map(|op| format!("{noun} needs a positive integer, got `{op}`")),
            },
        };
        msg.map_or(Ok(()), |msg| Err(self.misuse(msg)))
    }
}

/// A parsed, checked invocation.
struct Args {
    cmd: &'static Command,
    operands: Vec<String>,
    /// Flags as given, global ones included; a repeated flag's last
    /// value wins.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// A flag's value as `T`.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| f == flag)?;
        let parsed = value.as_deref()?.parse().ok();
        Some(parsed.expect("the parser checked the value"))
    }

    /// The operands as `T`s.
    fn parsed<T: FromStr>(&self) -> Vec<T> {
        let parse = |v: &String| v.parse().ok().expect("the parser checked the operands");
        self.operands.iter().map(parse).collect()
    }

    /// `--stop-after`, which interrupts a checkpointed run and so needs
    /// `--checkpoint` or `--resume` beside it.
    fn stop_after(&self) -> Result<Option<usize>, Failure> {
        let stop = self.get("--stop-after");
        if stop.is_some() && !self.has("--checkpoint") && !self.has("--resume") {
            return Err(self.misuse("--stop-after only makes sense with --checkpoint or --resume"));
        }
        Ok(stop)
    }

    fn misuse(&self, msg: impl std::fmt::Display) -> Failure {
        self.cmd.misuse(msg)
    }
}

/// The one pass over argv: global flags anywhere, the command at the
/// first operand, each flag checked against the command's usage and
/// its value against the flag's kind.
fn parse(argv: &[String]) -> Result<Args, Failure> {
    let mut cmd: Option<&'static Command> = None;
    let (mut operands, mut flags) = (Vec::new(), Vec::new());
    let mut it = argv.iter();
    while let Some(tok) = it.next() {
        let spec = cmd.unwrap_or(&COMMANDS[0]);
        if !tok.starts_with("--") {
            if cmd.is_none() {
                let found = COMMANDS[1..].iter().find(|c| c.name == tok);
                cmd = Some(found.unwrap_or(&COMMANDS[0]));
                if found.is_some() {
                    continue;
                }
            }
            operands.push(tok.clone());
            continue;
        }
        let known = FLAGS
            .iter()
            .find(|(names, _)| names.contains(&tok.as_str()));
        let Some(&(_, kind)) = known.filter(|_| spec.takes(tok)) else {
            let name = spec.name;
            let msg = format!("unknown {name} flag `{tok}`: unknown {name} argument");
            return Err(spec.misuse(msg));
        };
        let value = match kind {
            None => None,
            Some(kind) => match it.next() {
                Some(v) if !v.starts_with("--") && kind.accepts(v) => Some(v.clone()),
                got => {
                    let got = got.map(|v| format!(", got `{v}`")).unwrap_or_default();
                    return Err(spec.misuse(format!("{tok} needs {}{got}", kind.what())));
                }
            },
        };
        flags.push((tok.clone(), value));
    }
    let cmd = cmd.unwrap_or(&COMMANDS[0]);
    cmd.check_operands(&operands)?;
    Ok(Args {
        cmd,
        operands,
        flags,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|f| f.exit());
    let opts = Options {
        quick: args.has("--quick"),
        results_dir: PathBuf::from("results"),
    };
    let console = Console::from_env(args.has("--quiet"));
    // Serve before the command starts, so the endpoint is already
    // answering while (say) the policy library builds.
    let _server = args
        .get::<String>("--serve")
        .as_deref()
        .map(start_obs_server)
        .transpose()
        .unwrap_or_else(|f| f.exit());

    let health = obs::enabled().then(obs::health::global);
    if let Some(h) = health {
        let label = format!("{} {}", args.cmd.name, args.operands.join(" "));
        h.begin_job(label.trim_end());
    }
    // A panicking run still leaves its metrics behind: the failed run is
    // exactly the one you want data from.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (args.cmd.run)(&args, &opts, &console)
    }));
    write_metrics_snapshot(&opts, &console);
    if let Some(h) = health {
        h.finish_job(matches!(outcome, Ok(Ok(()))));
    }
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(failure)) => failure.exit(),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Starts the embedded observability server (and switches the profiler
/// on so `/profile` has data).
fn start_obs_server(addr: &str) -> Result<obs::ObsServer, Failure> {
    obs::profile::set_enabled(true);
    let server = obs::ObsServer::start(addr)
        .map_err(|e| Failure::new(2, format!("cannot serve on {addr}: {e}")))?;
    // To stdout, not the console: scripts (and the CI live-endpoint
    // job) grep this line for the bound port.
    println!("obs: serving on http://{}", server.local_addr());
    Ok(server)
}

/// Drops the process-wide metrics next to the figure CSVs (Prometheus
/// text + CSV), unless observability is off.
fn write_metrics_snapshot(opts: &Options, console: &Console) {
    if !obs::enabled() {
        return;
    }
    let snapshot = obs::Registry::global().snapshot();
    if snapshot.is_empty() {
        return;
    }
    for (file, text) in [
        ("metrics.prom", obs::export::render_prometheus(&snapshot)),
        ("metrics.csv", obs::export::render_csv(&snapshot)),
    ] {
        let path = opts.results_dir.join(file);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, text) {
            Ok(()) => console.note(format!("  -> {}", path.display())),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
}

/// Runs `f` in its own trace scope when `RAC_OBS=trace` is on. The
/// scope is thread-local, so the events are deterministic as long as
/// `f`'s traced work stays on this thread.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Option<Arc<TraceWriter>>) {
    if !obs::tracing_enabled() {
        return (f(), None);
    }
    let writer = Arc::new(TraceWriter::new());
    let out = obs::trace::with_writer(&writer, f);
    (out, Some(writer))
}

/// Writes a [`traced`] scope's events to `path` and notes the count;
/// `tag` is appended inside the note's parentheses.
fn save_trace(writer: &TraceWriter, path: &Path, console: &Console, tag: &str) {
    match writer.write_to(path) {
        Ok(()) => console.note(format!(
            "  -> {} ({} events{tag})",
            path.display(),
            writer.len()
        )),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// Loads and verifies a snapshot file — a half-written, corrupt, or
/// stale checkpoint must never panic.
fn load_snapshot(path: &Path, what: &str) -> Result<ckpt::Snapshot, Failure> {
    ckpt::Snapshot::load(path)
        .map_err(|e| Failure::new(2, format!("cannot {what} from {}: {e}", path.display())))
}

/// [`load_snapshot`] for resume paths: first sweeps away any `.tmp`
/// file a crash left beside the checkpoint. The committed snapshot is
/// always the one to resume from — the temp is a torn write by
/// construction — so it must never shadow the real file or clutter the
/// checkpoint directory.
fn load_resume_snapshot(path: &Path) -> Result<ckpt::Snapshot, Failure> {
    match ckpt::remove_stale_temp(path) {
        Ok(true) => eprintln!(
            "note: removed stale temp checkpoint beside {} (crash mid-write)",
            path.display()
        ),
        Ok(false) => {}
        Err(e) => {
            return Err(Failure::new(
                2,
                format!("cannot clean stale temp beside {}: {e}", path.display()),
            ))
        }
    }
    load_snapshot(path, "resume")
}

fn banner(out: &mut String, title: &str) {
    let _ = writeln!(out);
    let _ = writeln!(out, "=== {title} ===");
}

fn save(t: &TextTable, opts: &Options, file: &str, out: &mut String) {
    let path: &Path = &opts.results_dir.join(file);
    match t.write_csv(path) {
        Ok(()) => {
            let _ = writeln!(out, "  -> {}", path.display());
        }
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn ok(line: &str) -> Args {
        parse(&argv(line)).unwrap_or_else(|f| panic!("`{line}` must parse: {}", f.msg))
    }

    fn err(line: &str) -> String {
        match parse(&argv(line)) {
            Ok(args) => panic!("`{line}` must be rejected, parsed as {}", args.cmd.name),
            Err(f) => {
                assert_eq!(f.code, 2, "`{line}`");
                f.msg
            }
        }
    }

    #[test]
    fn global_flags_go_before_or_after_the_command() {
        for line in ["--quick bench", "bench --quick", "--quiet fleet 12 --quick"] {
            let args = ok(line);
            assert_eq!(
                args.cmd.name,
                line.split(' ').find(|t| !t.starts_with("--")).unwrap()
            );
            assert!(args.has("--quick"), "`{line}`");
            assert_eq!(args.has("--quiet"), line.contains("--quiet"));
        }
        let args = ok("--quick fleet 12 --seed 7");
        assert_eq!(args.parsed::<usize>(), [12]);
        assert_eq!(args.get::<u64>("--seed"), Some(7));
    }

    #[test]
    fn serve_takes_its_address_out_of_the_operands() {
        let args = ok("--serve 127.0.0.1:0 table1");
        assert_eq!(args.cmd.name, "figures");
        assert_eq!(
            args.get::<String>("--serve").as_deref(),
            Some("127.0.0.1:0")
        );
        assert_eq!(args.operands, ["table1"]);
        let args = ok("scenario diurnal --serve 127.0.0.1:9898 --quick");
        assert_eq!(
            args.get::<String>("--serve").as_deref(),
            Some("127.0.0.1:9898")
        );
        assert_eq!(args.operands, ["diurnal"]);
        assert!(err("table1 --serve").contains("--serve needs a bind address"));
    }

    #[test]
    fn values_must_be_present_and_not_flags() {
        assert!(err("bench --check").contains("--check needs a path"));
        let msg = err("bench --out --quick");
        assert!(msg.contains("--out needs a path, got `--quick`"), "{msg}");
        assert!(msg.contains("usage: figures bench"), "{msg}");
        let msg = err("fleet --radius -1");
        assert!(
            msg.contains("--radius needs a positive number, got `-1`"),
            "{msg}"
        );
        assert!(err("tournament --profile hard").contains("calm, brisk, stormy"));
        assert!(err("scenario diurnal --stop-after 0").contains("positive integer"));
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        let mut lines: Vec<String> = COMMANDS[1..]
            .iter()
            .map(|c| format!("{} --bogus", c.name))
            .collect();
        lines.extend(["--bogus".to_string(), "table1 --bogus".to_string()]);
        for line in &lines {
            let msg = err(line);
            assert!(msg.contains("flag `--bogus`"), "{msg}");
            assert!(msg.contains("usage: figures"), "{msg}");
        }
        // A command's flags are not global.
        assert!(err("--list fleet").contains("unknown figures flag"));
    }

    #[test]
    fn figure_names_are_operands_of_the_default_command() {
        let args = ok("table1 fig2 --quick");
        assert_eq!(args.cmd.name, "figures");
        assert_eq!(args.operands, ["table1", "fig2"]);
        assert!(ok("").operands.is_empty());
        assert_eq!(ok("all").operands, ["all"]);
        for line in ["fig11", "figures", "table1 scenario"] {
            let msg = err(line);
            assert!(msg.contains("unknown experiment"), "{msg}");
            assert!(msg.contains("figures tournament"), "{msg}");
        }
    }

    #[test]
    fn operands_are_checked_by_kind() {
        assert_eq!(ok("chaos 1 2").parsed::<u64>(), [1, 2]);
        assert!(err("crashdrill x").contains("unsigned integers"));
        assert!(err("tournament 2 3").contains("at most one scenario-count"));
        assert!(err("fleet 0").contains("tenant-count needs a positive integer"));
        assert!(err("bench foo").contains("unknown bench argument"));
    }

    #[test]
    fn usage_flags_and_the_flag_table_agree_and_appear_in_the_docs() {
        let usage = synopsis();
        let named: Vec<&str> = usage
            .split(['[', ']', ' '])
            .filter(|w| w.starts_with("--"))
            .collect();
        let table: Vec<&str> = FLAGS.iter().flat_map(|(names, _)| names.to_vec()).collect();
        for flag in &named {
            assert!(table.contains(flag), "{flag} has no kind");
        }
        for flag in &table {
            assert!(named.contains(flag), "no usage line names {flag}");
        }
        let docs = [
            ("module doc", include_str!("main.rs")),
            ("README", include_str!("../../../../../README.md")),
        ];
        for line in synopsis().lines() {
            for (name, text) in docs {
                assert!(text.contains(line.trim()), "{name} lacks `{}`", line.trim());
            }
        }
    }
}
