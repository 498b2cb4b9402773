//! Per-loop-nest balance attribution from an observability profile.
//!
//! [`measure_program_balance`](crate::balance::measure_program_balance)
//! wraps interpretation in an `"interp"` span; the interpreter opens one
//! `"nest:<name>"` span per loop nest, which sees exactly the accesses the
//! nest issues, and the final writeback flush runs under a sibling
//! `"flush"` span.  Those spans partition the run's traffic exactly, so
//! this module can rebuild the paper's program-balance table *per nest*:
//! which loop nest moved how many bytes on which channel, per flop — the
//! decomposition that tells you which nest a fusion or store-elimination
//! pass actually helped.

use mbb_obs::{channel_names, Counters, Profile};

/// One row of the per-nest table: a loop nest (or the final flush) with
/// its attributed traffic.
#[derive(Clone, Debug)]
pub struct NestRow {
    /// `"nest:<name>"` as recorded, `"(flush)"` for the final writeback
    /// flush, `"(other)"` for any unattributed remainder.
    pub name: String,
    /// Flops executed in this nest.
    pub flops: u64,
    /// Wall-clock spent in the span.
    pub wall_ns: u64,
    /// Full attributed counter delta.
    pub delta: Counters,
}

impl NestRow {
    /// Balance of channel `k`: bytes moved per flop *of this nest*.
    /// Flop-free rows (the flush) report the bytes against zero flops as
    /// infinity — the table renderer prints `-` for those.
    pub fn balance(&self, k: usize) -> f64 {
        self.delta.channel_bytes[k] as f64 / self.flops.max(1) as f64
    }
}

/// The per-nest attribution table of one measured run.
#[derive(Clone, Debug)]
pub struct NestTable {
    /// One row per loop nest, in program order, then `"(flush)"` /
    /// `"(other)"` rows when they carried traffic.
    pub rows: Vec<NestRow>,
    /// Column-wise total — equals the whole-program report by the span
    /// partition invariant.
    pub total: Counters,
    /// Total flops (denominator of the whole-program balance row).
    pub flops: u64,
    /// Number of channels with traffic (hierarchy depth + 1).
    pub channels: usize,
}

/// Extracts the per-nest table from the first `"interp"` span of a
/// profile.  Returns `None` when the profile has no `"interp"` span (e.g.
/// a timing-only collection).
pub fn nest_table(profile: &Profile) -> Option<NestTable> {
    nest_table_under(profile, None)
}

/// As [`nest_table`], but restricted to the first `"interp"` span nested
/// under the named ancestor span — used to pull the *before* and *after*
/// tables out of an `optimize` profile, where several interpretations
/// happen under different phase spans.
pub fn nest_table_under(profile: &Profile, phase: Option<&str>) -> Option<NestTable> {
    let scope = match phase {
        Some(name) => Some(profile.find(name)?),
        None => None,
    };
    let interp = (0..profile.spans.len()).find(|&k| {
        profile.spans[k].name == "interp" && scope.is_none_or(|s| profile.has_ancestor(k, s))
    })?;

    let mut rows = Vec::new();
    let mut attributed = Counters::default();
    for k in profile.children(interp) {
        let s = &profile.spans[k];
        if !s.name.starts_with("nest:") {
            continue;
        }
        attributed.add(&s.delta);
        rows.push(NestRow {
            name: s.name.clone(),
            flops: s.delta.flops,
            wall_ns: s.wall_ns,
            delta: s.delta,
        });
    }

    let mut total = profile.spans[interp].delta;
    // Anything the interp span saw outside its nest children (should be
    // nothing — the interpreter flushes per nest — but never hide bytes).
    let other = total.delta_since(&attributed);
    if other != Counters::default() {
        rows.push(NestRow { name: "(other)".into(), flops: other.flops, wall_ns: 0, delta: other });
    }

    // The final writeback flush is a *sibling* span under the same parent,
    // recorded after interp; its bytes belong in the program total.
    let parent = profile.spans[interp].parent;
    if let Some(f) = (interp + 1..profile.spans.len())
        .find(|&k| profile.spans[k].name == "flush" && profile.spans[k].parent == parent)
    {
        let s = &profile.spans[f];
        if s.delta != Counters::default() {
            rows.push(NestRow {
                name: "(flush)".into(),
                flops: 0,
                wall_ns: s.wall_ns,
                delta: s.delta,
            });
        }
        total.add(&s.delta);
    }

    Some(NestTable { channels: total.channels_used(), flops: total.flops, total, rows })
}

/// Renders the table: one row per nest, `bytes (bytes/flop)` per channel,
/// and a totals row that matches the whole-program report exactly.
pub fn render(table: &NestTable) -> String {
    use std::fmt::Write as _;
    let names = channel_names(table.channels);
    let mut out = String::new();
    let name_w =
        table.rows.iter().map(|r| r.name.len()).chain(["total".len()]).max().unwrap_or(5).max(5);
    let _ = write!(out, "  {:name_w$}  {:>12}", "nest", "flops");
    for n in &names {
        // `↔` is 3 UTF-8 bytes but one column; pad by display width.
        let pad = 22usize.saturating_sub(n.chars().count());
        let _ = write!(out, "  {}{}", " ".repeat(pad), n);
    }
    let _ = writeln!(out);
    let mut line = |name: &str, flops: u64, delta: &Counters| {
        let _ = write!(out, "  {:name_w$}  {:>12}", name, flops);
        for k in 0..table.channels {
            let bytes = delta.channel_bytes[k];
            let cell = if flops == 0 {
                format!("{bytes} (-)")
            } else {
                format!("{} ({:.2})", bytes, bytes as f64 / flops as f64)
            };
            let _ = write!(out, "  {cell:>22}");
        }
        let _ = writeln!(out);
    };
    for r in &table.rows {
        line(&r.name, r.flops, &r.delta);
    }
    line("total", table.flops, &table.total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::measure_program_balance;
    use mbb_ir::builder::*;
    use mbb_memsim::machine::MachineModel;
    use mbb_obs::{collect, Mode};

    fn two_nests(n: usize) -> mbb_ir::program::Program {
        let mut b = ProgramBuilder::new("two");
        let a = b.array_out("a", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "update",
            &[(i, 0, n as i64 - 1)],
            vec![assign(a.at([v(i)]), ld(a.at([v(i)])) + lit(0.5))],
        );
        b.nest("reduce", &[(j, 0, n as i64 - 1)], vec![accumulate(s, ld(a.at([v(j)])))]);
        b.finish()
    }

    #[test]
    fn nest_rows_sum_exactly_to_the_whole_program_report() {
        let m = MachineModel::origin2000();
        let prog = two_nests(1 << 16);
        let c = collect(Mode::Full);
        let bal = measure_program_balance(&prog, &m).unwrap();
        let p = c.finish();
        let t = nest_table(&p).expect("interp span present");

        assert_eq!(t.channels, bal.report.channel_bytes.len());
        assert_eq!(t.flops, bal.flops);
        // Exactness: per-channel totals equal the report byte for byte…
        for (k, &bytes) in bal.report.channel_bytes.iter().enumerate() {
            assert_eq!(t.total.channel_bytes[k], bytes, "channel {k}");
            let row_sum: u64 = t.rows.iter().map(|r| r.delta.channel_bytes[k]).sum();
            assert_eq!(row_sum, bytes, "rows must partition channel {k}");
        }
        assert_eq!(t.total.mem_read_bytes, bal.report.mem_read_bytes);
        assert_eq!(t.total.mem_write_bytes, bal.report.mem_write_bytes);
        // …and both nests appear by name, in program order.
        let names: Vec<&str> = t.rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.starts_with(&["nest:update", "nest:reduce"]), "{names:?}");
        // The update nest writes; the flush row carries its writebacks.
        assert!(names.contains(&"(flush)"), "{names:?}");
    }

    #[test]
    fn update_nest_dominates_memory_traffic() {
        let m = MachineModel::origin2000();
        let prog = two_nests(1 << 18); // out of cache
        let c = collect(Mode::Full);
        measure_program_balance(&prog, &m).unwrap();
        let t = nest_table(&c.finish()).unwrap();
        let mem = t.channels - 1;
        let row = |name: &str| t.rows.iter().find(|r| r.name == name).unwrap();
        // Per flop, the update nest fetches a[i]; reduce also fetches, but
        // update additionally owes writebacks (mostly in-flight evictions).
        let update = row("nest:update");
        let reduce = row("nest:reduce");
        assert!(update.delta.channel_bytes[mem] > reduce.delta.channel_bytes[mem]);
        assert!(update.delta.mem_write_bytes > 0);
        assert_eq!(reduce.flops, update.flops);
    }

    #[test]
    fn render_includes_every_nest_and_a_total() {
        let m = MachineModel::origin2000();
        let c = collect(Mode::Full);
        measure_program_balance(&two_nests(1 << 12), &m).unwrap();
        let t = nest_table(&c.finish()).unwrap();
        let text = render(&t);
        assert!(text.contains("nest:update"));
        assert!(text.contains("nest:reduce"));
        assert!(text.contains("total"));
        assert!(text.contains("Mem"));
        assert!(text.contains("Reg↔L1"));
    }

    #[test]
    fn timing_only_profile_has_no_table() {
        let m = MachineModel::origin2000();
        let c = collect(Mode::Timing);
        measure_program_balance(&two_nests(256), &m).unwrap();
        let p = c.finish();
        // The spans exist but carry no counters: the table is all zeros
        // rather than absent — callers gate on Mode::Full instead.
        let t = nest_table(&p).unwrap();
        assert_eq!(t.total, Counters::default());
    }

    #[test]
    fn tables_extract_per_phase() {
        let m = MachineModel::origin2000();
        let prog = two_nests(1 << 12);
        let opt = crate::pipeline::optimize(&prog, crate::pipeline::OptimizeOptions::default());
        let c = collect(Mode::Full);
        {
            let _b = mbb_obs::span!("before");
            measure_program_balance(&prog, &m).unwrap();
        }
        {
            let _a = mbb_obs::span!("after");
            measure_program_balance(&opt.program, &m).unwrap();
        }
        let p = c.finish();
        let before = nest_table_under(&p, Some("before")).unwrap();
        let after = nest_table_under(&p, Some("after")).unwrap();
        assert_eq!(before.rows.iter().filter(|r| r.name.starts_with("nest:")).count(), 2);
        // Fusion merged the two nests: the after table has fewer nest rows
        // and no more memory traffic than before.
        let after_nests = after.rows.iter().filter(|r| r.name.starts_with("nest:")).count();
        assert!(after_nests <= 1, "fused: {after_nests} rows");
        let mem = before.channels - 1;
        assert!(after.total.channel_bytes[mem] <= before.total.channel_bytes[mem]);
    }
}
