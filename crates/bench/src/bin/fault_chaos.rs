//! Ingest-corruption ablation of the streaming trust boundary
//! (DESIGN.md §11): replays seeded row corruption — arity truncation,
//! out-of-domain codes, MISSING flooding, all from
//! [`RowCorruptor`] — through the `try_absorb` boundary of a
//! [`StreamingMcdc`] under every [`UnseenPolicy`], and writes
//! `BENCH_faults.json` with the rejection / quarantine / coercion
//! counters and the serving-health walk per policy.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin fault_chaos
//!        [--out PATH] [--seeds N] [--n ROWS] [--quick]`
//!
//! `--quick` runs a tiny grid (n = 240, 3 seeds) and asserts that no
//! policy panics, that each policy's boundary counters fire, and that the
//! whole corrupted replay (admissions, counters, health transitions) is
//! bit-identical when re-run on the same seeds. Then it writes nothing;
//! this is the `scripts/verify.sh` gate.

use std::time::Instant;

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use mcdc_bench::corrupt::RowCorruptor;
use mcdc_core::{HealthState, Mgcpl, StreamingMcdc, UnseenPolicy};

/// One ingest-axis cell: the `try_absorb` boundary under one
/// [`UnseenPolicy`], counters summed over the fit seeds.
#[derive(Debug, Clone, PartialEq)]
struct IngestEntry {
    policy: &'static str,
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    quarantined: u64,
    coerced_rows: u64,
    coerced_values: u64,
    health_transitions: u64,
    healthy_runs: u64,
    drifting_runs: u64,
    degraded_runs: u64,
    wall_ms_mean: f64,
}

/// Replays `arrivals` corrupted rows per seed through a freshly
/// bootstrapped stream under `policy`.
fn run_ingest_cell(policy: UnseenPolicy, data: &Dataset, seeds: u64, arrivals: u64) -> IngestEntry {
    let label = match policy {
        UnseenPolicy::Reject => "reject",
        UnseenPolicy::AsMissing => "as-missing",
        UnseenPolicy::Quarantine => "quarantine",
    };
    let mut entry = IngestEntry {
        policy: label,
        arrivals: seeds * arrivals,
        admitted: 0,
        rejected: 0,
        quarantined: 0,
        coerced_rows: 0,
        coerced_values: 0,
        health_transitions: 0,
        healthy_runs: 0,
        drifting_runs: 0,
        degraded_runs: 0,
        wall_ms_mean: 0.0,
    };
    let mut walls = Vec::new();
    for seed in 1..=seeds {
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(seed).build(), data.table())
                .expect("ingest bootstrap fits")
                .with_unseen_policy(policy);
        let corruptor = RowCorruptor::seeded(0x16E5 ^ seed);
        let start = Instant::now();
        let mut row = Vec::new();
        for arrival in 0..arrivals {
            row.clear();
            row.extend_from_slice(data.table().row(arrival as usize % data.table().n_rows()));
            corruptor.corrupt_row(arrival, &mut row);
            let _ = stream.try_absorb(&row);
        }
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        let stats = stream.ingest_stats();
        entry.admitted += stats.admitted_rows;
        entry.rejected += stats.rejected_rows;
        entry.quarantined += stats.quarantined_rows;
        entry.coerced_rows += stats.coerced_rows;
        entry.coerced_values += stats.coerced_values;
        let health = stream.serving_health();
        entry.health_transitions += health.transitions;
        match health.state {
            HealthState::Healthy => entry.healthy_runs += 1,
            HealthState::Drifting => entry.drifting_runs += 1,
            HealthState::Degraded => entry.degraded_runs += 1,
        }
    }
    entry.wall_ms_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    entry
}

/// The ingest-axis invariants: every offered row is accounted for exactly
/// once, each policy's signature counters fire, and the whole corrupted
/// replay is deterministic per seed.
fn ingest_gate(cells: &[IngestEntry], data: &Dataset, seeds: u64, arrivals: u64) {
    let find = |p: &str| cells.iter().find(|e| e.policy == p).expect("policy present");
    for entry in cells {
        assert_eq!(
            entry.admitted + entry.rejected + entry.quarantined,
            entry.arrivals,
            "{}: offered rows not conserved",
            entry.policy
        );
        assert!(entry.wall_ms_mean.is_finite());
    }
    let reject = find("reject");
    assert!(reject.rejected > 0, "reject policy never rejected");
    assert_eq!(reject.quarantined, 0, "reject policy must not quarantine");
    assert_eq!(reject.coerced_values, 0, "reject policy must not coerce");
    let as_missing = find("as-missing");
    assert!(as_missing.coerced_values > 0, "as-missing never coerced");
    assert!(as_missing.rejected > 0, "truncated rows must still be refused");
    assert_eq!(as_missing.quarantined, 0, "as-missing must not quarantine");
    let quarantine = find("quarantine");
    assert!(quarantine.quarantined > 0, "quarantine policy never quarantined");
    assert_eq!(quarantine.rejected, 0, "quarantine must divert, not refuse");
    assert!(
        cells.iter().any(|e| e.health_transitions > 0),
        "the corrupted replay never moved the health machine"
    );
    // Same seeds, same corruption schedule, same walk — bit for bit.
    for entry in cells {
        let policy = match entry.policy {
            "reject" => UnseenPolicy::Reject,
            "as-missing" => UnseenPolicy::AsMissing,
            _ => UnseenPolicy::Quarantine,
        };
        let replay = run_ingest_cell(policy, data, seeds, arrivals);
        assert_eq!(
            (
                replay.admitted,
                replay.rejected,
                replay.quarantined,
                replay.coerced_values,
                replay.health_transitions,
                replay.degraded_runs,
            ),
            (
                entry.admitted,
                entry.rejected,
                entry.quarantined,
                entry.coerced_values,
                entry.health_transitions,
                entry.degraded_runs,
            ),
            "{}: corrupted replay is not deterministic",
            entry.policy
        );
    }
}

fn main() {
    let args = Args::parse();
    let (n, seeds) = if args.quick { (240, 3) } else { (args.n, args.seeds) };
    // Cleanly separated clusters isolate the boundary's own behaviour
    // from clustering difficulty.
    let data = GeneratorConfig::new("sep", n, vec![4; 8], 3).noise(0.05).generate(5).dataset;
    let arrivals = 2 * n as u64;
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>9}",
        "ingest policy",
        "arrivals",
        "admit",
        "reject",
        "quar",
        "coerced",
        "health",
        "ok",
        "drift",
        "degr",
        "wall ms"
    );
    let ingest_cells: Vec<IngestEntry> =
        [UnseenPolicy::Reject, UnseenPolicy::AsMissing, UnseenPolicy::Quarantine]
            .into_iter()
            .map(|policy| run_ingest_cell(policy, &data, seeds, arrivals))
            .collect();
    for e in &ingest_cells {
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>9.2}",
            e.policy,
            e.arrivals,
            e.admitted,
            e.rejected,
            e.quarantined,
            e.coerced_values,
            e.health_transitions,
            e.healthy_runs,
            e.drifting_runs,
            e.degraded_runs,
            e.wall_ms_mean,
        );
    }
    ingest_gate(&ingest_cells, &data, seeds, arrivals);

    if args.quick {
        println!("fault_chaos --quick: OK");
        return;
    }
    let json = render_json(&ingest_cells, seeds, n);
    std::fs::write(&args.out, json).expect("write BENCH_faults.json");
    println!("\nwrote {}", args.out);
}

/// Hand-rolled JSON (the workspace has no serde_json; labels are plain
/// ASCII, numbers are finite).
fn render_json(ingest: &[IngestEntry], seeds: u64, n: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fault_chaos\",\n");
    out.push_str(&format!("  \"fit_seeds\": {seeds},\n"));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"ingest_entries\": [\n");
    for (i, e) in ingest.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"ingest\", \"policy\": \"{}\", \"arrivals\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"quarantined\": {}, \
             \"coerced_rows\": {}, \"coerced_values\": {}, \
             \"health_transitions\": {}, \"healthy_runs\": {}, \
             \"drifting_runs\": {}, \"degraded_runs\": {}, \
             \"wall_ms_mean\": {:.3}}}{}\n",
            e.policy,
            e.arrivals,
            e.admitted,
            e.rejected,
            e.quarantined,
            e.coerced_rows,
            e.coerced_values,
            e.health_transitions,
            e.healthy_runs,
            e.drifting_runs,
            e.degraded_runs,
            e.wall_ms_mean,
            if i + 1 < ingest.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seeds: u64,
    n: usize,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args =
            Args { out: "BENCH_faults.json".to_owned(), seeds: 10, n: 600, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seeds" => args.seeds = it.next().expect("--seeds N").parse().expect("numeric"),
                "--n" => args.n = it.next().expect("--n ROWS").parse().expect("numeric"),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use --out, --seeds, --n, --quick"),
            }
        }
        args
    }
}
