//! Lossless JSON codec for completed grid units.
//!
//! The run journal carries raw [`UnitResult`]s across process boundaries (resumed runs,
//! shards, the networked coordinator), and the campaign's headline property —
//! merged / resumed output byte-identical to a single-process run — holds only if every
//! value round-trips *exactly*. Two rules make that true:
//!
//! * `f64` fields ride as JSON numbers: the writer ([`crate::json`]) prints the
//!   shortest round-trip form, so parsing returns the identical bits.
//! * `u64` counters ride as **decimal strings**: a JSON number is an `f64` in this
//!   pipeline and would silently round counters above 2^53 — cycle and byte counts at
//!   production scale can get there, so they never touch floating point.

use crate::experiments::Point;
use crate::json::Json;
use crate::sweep::UnitResult;
use piccolo_accel::{PhaseBreakdown, RunResult, SystemKind};
use piccolo_cache::CacheStats;
use piccolo_dram::MemStats;

fn u64_json(v: u64) -> Json {
    Json::str(v.to_string())
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("field '{key}' is not a u64 string"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, String> {
    let n = f64_field(obj, key)?;
    if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
        Ok(n as u32)
    } else {
        Err(format!("field '{key}' is not a u32"))
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn mem_stats_json(m: &MemStats) -> Json {
    Json::obj([
        ("activations", u64_json(m.activations)),
        ("precharges", u64_json(m.precharges)),
        ("read_bursts", u64_json(m.read_bursts)),
        ("write_bursts", u64_json(m.write_bursts)),
        ("fim_gathers", u64_json(m.fim_gathers)),
        ("fim_scatters", u64_json(m.fim_scatters)),
        ("nmp_ops", u64_json(m.nmp_ops)),
        ("pim_updates", u64_json(m.pim_updates)),
        ("offchip_bytes", u64_json(m.offchip_bytes)),
        ("useful_offchip_bytes", u64_json(m.useful_offchip_bytes)),
        ("internal_bytes", u64_json(m.internal_bytes)),
        ("read_transactions", u64_json(m.read_transactions)),
        ("write_transactions", u64_json(m.write_transactions)),
        ("row_hits", u64_json(m.row_hits)),
        ("row_misses", u64_json(m.row_misses)),
    ])
}

fn mem_stats_from_json(v: &Json) -> Result<MemStats, String> {
    Ok(MemStats {
        activations: u64_field(v, "activations")?,
        precharges: u64_field(v, "precharges")?,
        read_bursts: u64_field(v, "read_bursts")?,
        write_bursts: u64_field(v, "write_bursts")?,
        fim_gathers: u64_field(v, "fim_gathers")?,
        fim_scatters: u64_field(v, "fim_scatters")?,
        nmp_ops: u64_field(v, "nmp_ops")?,
        pim_updates: u64_field(v, "pim_updates")?,
        offchip_bytes: u64_field(v, "offchip_bytes")?,
        useful_offchip_bytes: u64_field(v, "useful_offchip_bytes")?,
        internal_bytes: u64_field(v, "internal_bytes")?,
        read_transactions: u64_field(v, "read_transactions")?,
        write_transactions: u64_field(v, "write_transactions")?,
        row_hits: u64_field(v, "row_hits")?,
        row_misses: u64_field(v, "row_misses")?,
    })
}

fn cache_stats_json(c: &CacheStats) -> Json {
    Json::obj([
        ("accesses", u64_json(c.accesses)),
        ("hits", u64_json(c.hits)),
        ("misses", u64_json(c.misses)),
        ("line_evictions", u64_json(c.line_evictions)),
        ("sector_evictions", u64_json(c.sector_evictions)),
        ("writeback_bytes", u64_json(c.writeback_bytes)),
        ("fill_bytes", u64_json(c.fill_bytes)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        accesses: u64_field(v, "accesses")?,
        hits: u64_field(v, "hits")?,
        misses: u64_field(v, "misses")?,
        line_evictions: u64_field(v, "line_evictions")?,
        sector_evictions: u64_field(v, "sector_evictions")?,
        writeback_bytes: u64_field(v, "writeback_bytes")?,
        fill_bytes: u64_field(v, "fill_bytes")?,
    })
}

fn phases_json(p: &PhaseBreakdown) -> Json {
    Json::obj([
        ("scatter_mem_clocks", u64_json(p.scatter_mem_clocks)),
        ("apply_mem_clocks", u64_json(p.apply_mem_clocks)),
        ("flush_mem_clocks", u64_json(p.flush_mem_clocks)),
    ])
}

fn phases_from_json(v: &Json) -> Result<PhaseBreakdown, String> {
    Ok(PhaseBreakdown {
        scatter_mem_clocks: u64_field(v, "scatter_mem_clocks")?,
        apply_mem_clocks: u64_field(v, "apply_mem_clocks")?,
        flush_mem_clocks: u64_field(v, "flush_mem_clocks")?,
    })
}

fn run_result_json(r: &RunResult) -> Json {
    Json::obj([
        ("system", Json::str(r.system.name())),
        ("accel_cycles", u64_json(r.accel_cycles)),
        ("compute_cycles", u64_json(r.compute_cycles)),
        ("mem_ns", Json::Num(r.mem_ns)),
        ("elapsed_ns", Json::Num(r.elapsed_ns)),
        ("iterations", Json::Num(r.iterations as f64)),
        ("edges_processed", u64_json(r.edges_processed)),
        ("mem_stats", mem_stats_json(&r.mem_stats)),
        ("cache_stats", cache_stats_json(&r.cache_stats)),
        ("tile_width", Json::Num(r.tile_width as f64)),
        ("num_tiles", Json::Num(r.num_tiles as f64)),
        ("phases", phases_json(&r.phases)),
    ])
}

fn run_result_from_json(v: &Json) -> Result<RunResult, String> {
    let system_name = str_field(v, "system")?;
    let system = SystemKind::ALL
        .into_iter()
        .find(|s| s.name() == system_name)
        .ok_or_else(|| format!("unknown system '{system_name}'"))?;
    Ok(RunResult {
        system,
        accel_cycles: u64_field(v, "accel_cycles")?,
        compute_cycles: u64_field(v, "compute_cycles")?,
        mem_ns: f64_field(v, "mem_ns")?,
        elapsed_ns: f64_field(v, "elapsed_ns")?,
        iterations: u32_field(v, "iterations")?,
        edges_processed: u64_field(v, "edges_processed")?,
        mem_stats: mem_stats_from_json(field(v, "mem_stats")?)?,
        cache_stats: cache_stats_from_json(field(v, "cache_stats")?)?,
        tile_width: u32_field(v, "tile_width")?,
        num_tiles: u32_field(v, "num_tiles")?,
        phases: phases_from_json(field(v, "phases")?)?,
    })
}

/// Serializes one completed unit: a tagged object, `kind` either `run` (a full
/// simulation's [`RunResult`]) or `points` (a measure unit's rows).
pub(crate) fn unit_result_to_json(r: &UnitResult) -> Json {
    match r {
        UnitResult::Run(run) => {
            let Json::Obj(mut pairs) = run_result_json(run) else {
                unreachable!("run_result_json builds an object")
            };
            pairs.insert(0, ("kind".to_string(), Json::str("run")));
            Json::Obj(pairs)
        }
        UnitResult::Points(points) => Json::obj([
            ("kind", Json::str("points")),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("label", Json::str(&p.label)),
                                ("value", Json::Num(p.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Parses a serialized unit back; the inverse of [`unit_result_to_json`].
pub(crate) fn unit_result_from_json(v: &Json) -> Result<UnitResult, String> {
    match str_field(v, "kind")? {
        "run" => Ok(UnitResult::Run(Box::new(run_result_from_json(v)?))),
        "points" => {
            let items = field(v, "points")?
                .as_array()
                .ok_or("'points' is not an array")?;
            let mut points = Vec::with_capacity(items.len());
            for item in items {
                points.push(Point {
                    label: str_field(item, "label")?.to_string(),
                    value: f64_field(item, "value")?,
                });
            }
            Ok(UnitResult::Points(points))
        }
        other => Err(format!("unknown unit kind '{other}'")),
    }
}

/// `true` when a serialized unit's kind tag matches a grid unit's kind — the check
/// shard merge and journal replay run before trusting a foreign result for a slot.
pub(crate) fn kind_matches(v: &Json, unit: &crate::sweep::Unit) -> bool {
    matches!(
        (v.get("kind").and_then(Json::as_str), unit),
        (Some("run"), crate::sweep::Unit::Sim(_))
            | (Some("points"), crate::sweep::Unit::Measure(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_accel::{simulate, SimConfig};
    use piccolo_algo::Bfs;
    use piccolo_graph::generate;

    #[test]
    fn run_results_roundtrip_exactly() {
        let g = generate::kronecker(10, 4, 5);
        for system in SystemKind::ALL {
            let cfg = SimConfig::for_system(system, 14).with_max_iterations(2);
            let run = simulate(&g, &Bfs::new(0), &cfg);
            let json = run_result_json(&run);
            let text = json.to_string();
            let back = run_result_from_json(&crate::json::parse(&text).unwrap()).unwrap();
            // RunResult has no PartialEq; serialized equality is the property the
            // pipeline actually needs (byte-identical derived output).
            assert_eq!(run_result_json(&back).to_string(), text);
            assert_eq!(back.accel_cycles, run.accel_cycles);
            assert_eq!(back.elapsed_ns.to_bits(), run.elapsed_ns.to_bits());
            assert_eq!(back.mem_stats, run.mem_stats);
            assert_eq!(back.cache_stats, run.cache_stats);
            assert_eq!(back.phases, run.phases);
        }
    }

    #[test]
    fn u64_counters_survive_beyond_f64_precision() {
        let big = (1u64 << 53) + 1; // not representable as f64
        let json = u64_json(big).to_string();
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.as_str().unwrap().parse::<u64>().unwrap(), big);
    }

    #[test]
    fn points_roundtrip_and_bad_documents_are_rejected() {
        let r = UnitResult::Points(vec![Point {
            label: "GM/Piccolo".to_string(),
            value: std::f64::consts::PI,
        }]);
        let text = unit_result_to_json(&r).to_string();
        // Recorded before the JSON writer moved into `piccolo-obs`.
        assert_eq!(
            text,
            r#"{"kind":"points","points":[{"label":"GM/Piccolo","value":3.141592653589793}]}"#
        );
        let back = unit_result_from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(unit_result_to_json(&back).to_string(), text);
        match back {
            UnitResult::Points(pts) => {
                assert_eq!(pts[0].value.to_bits(), std::f64::consts::PI.to_bits());
            }
            UnitResult::Run(_) => panic!("kind flipped"),
        }
        for bad in [
            r#"{"kind":"nope"}"#,
            r#"{"points":[]}"#,
            r#"{"kind":"run","system":"NoSuchSystem"}"#,
            r#"{"kind":"points","points":[{"label":"x"}]}"#,
        ] {
            assert!(unit_result_from_json(&crate::json::parse(bad).unwrap()).is_err());
        }
    }
}
