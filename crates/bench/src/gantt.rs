//! ASCII Gantt rendering of a run's per-rank virtual timelines, built from
//! the observability spans the engine and executor record (a run with a
//! `MetricsRegistry` attached has per-rank compute, send and receive spans
//! with virtual start and end times).

use tilecc_cluster::obs::Span;
use tilecc_cluster::Phase;

/// Render `ranks` per-rank timelines as an ASCII Gantt chart of `width`
/// columns: `#` compute, `.` receive (wait plus receive overhead), `s`/`r`
/// message endpoints, space idle. Driver spans and spans without a virtual
/// interval are ignored.
///
/// Painting is two-pass — spans first (`#`, `.`), then message-endpoint
/// markers (`s`, `r`) on top — so the output is independent of span order
/// and markers are never hidden under an adjacent compute span.
pub fn render_gantt(spans: &[Span], ranks: usize, width: usize) -> String {
    let timeline: Vec<(usize, Phase, f64, f64)> = spans
        .iter()
        .filter(|s| matches!(s.phase, Phase::Compute | Phase::Send | Phase::Recv))
        .filter_map(|s| {
            let rank = (s.pid as usize).checked_sub(1)?;
            let (start, end) = s.virt?;
            (rank < ranks).then_some((rank, s.phase, start, end))
        })
        .collect();
    let horizon = timeline.iter().map(|t| t.3).fold(0.0f64, f64::max);
    if horizon <= 0.0 || width == 0 {
        return String::new();
    }
    let col = |t: f64| -> usize {
        (((t / horizon) * width as f64) as usize).min(width.saturating_sub(1))
    };
    let mut rows = vec![vec![' '; width]; ranks];
    for &(rank, phase, start, end) in &timeline {
        let row = &mut rows[rank];
        match phase {
            Phase::Compute => row[col(start)..=col(end)].fill('#'),
            Phase::Recv => {
                for cell in &mut row[col(start)..col(end).max(col(start))] {
                    if *cell == ' ' {
                        *cell = '.';
                    }
                }
            }
            _ => {}
        }
    }
    for &(rank, phase, _, end) in &timeline {
        match phase {
            Phase::Recv => rows[rank][col(end)] = 'r',
            Phase::Send => rows[rank][col(end)] = 's',
            _ => {}
        }
    }
    let mut out = String::new();
    for (rank, row) in rows.into_iter().enumerate() {
        out.push_str(&format!("rank {rank:>3} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!("horizon: {horizon:.6} s\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: u32, phase: Phase, start: f64, end: f64) -> Span {
        Span {
            phase,
            name: phase.name(),
            pid: rank + 1,
            wall_start_ns: 0,
            wall_end_ns: 0,
            virt: Some((start, end)),
            detail: 0,
            edge: None,
        }
    }

    #[test]
    fn gantt_golden_render() {
        // Pinned output: any change to the renderer must update this test
        // deliberately. Rank 1's receive bar covers the wait (0..5) and the
        // receive overhead (5..6).
        let spans = vec![
            span(0, Phase::Compute, 0.0, 5.0),
            span(0, Phase::Send, 5.0, 5.0),
            span(1, Phase::Recv, 0.0, 6.0),
            span(1, Phase::Compute, 6.0, 10.0),
        ];
        let expected = "rank   0 |#####s    |\n\
                        rank   1 |......r###|\n\
                        horizon: 10.000000 s\n";
        assert_eq!(render_gantt(&spans, 2, 10), expected);
    }

    #[test]
    fn empty_and_driver_only_spans_render_empty() {
        assert_eq!(render_gantt(&[], 2, 40), "");
        assert_eq!(render_gantt(&[span(0, Phase::Compute, 0.0, 1.0)], 1, 0), "");
        let mut driver = span(0, Phase::Compute, 0.0, 1.0);
        driver.pid = 0;
        assert_eq!(render_gantt(&[driver], 1, 8), "");
    }

    #[test]
    fn zero_duration_spans_render_one_cell() {
        // A zero-duration compute (start == end) must still paint exactly
        // one column, not disappear or panic.
        let spans = vec![
            span(0, Phase::Compute, 2.0, 2.0),
            span(0, Phase::Send, 4.0, 4.0),
        ];
        let g = render_gantt(&spans, 1, 8);
        let row = g.lines().next().unwrap();
        assert_eq!(row.matches('#').count(), 1, "{g}");
        // A receive whose message was already waiting and that pays no
        // overhead (overlapped scheme): no '.' cells, just the marker.
        let instant = vec![
            span(0, Phase::Recv, 3.0, 3.0),
            span(0, Phase::Compute, 3.0, 4.0),
        ];
        let g = render_gantt(&instant, 1, 8);
        let row = g.lines().next().unwrap();
        assert!(!row.contains('.'), "{g}");
        assert!(row.contains('r'), "{g}");
    }

    #[test]
    fn out_of_order_spans_render_identically() {
        // The renderer must not depend on spans being sorted by time (ranks
        // flush their span buffers to the registry in any order).
        let sorted = vec![
            span(0, Phase::Recv, 0.0, 2.5),
            span(0, Phase::Compute, 2.5, 7.5),
            span(0, Phase::Send, 7.5, 8.0),
            span(1, Phase::Compute, 0.0, 3.0),
        ];
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        assert_eq!(render_gantt(&sorted, 2, 32), render_gantt(&shuffled, 2, 32));
    }
}
