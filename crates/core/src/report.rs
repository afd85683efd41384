//! Plain-text report formatting (the control programs of §5.4 write
//! gnuplot-ready columns; so do we).

/// Formats several named series sharing an x axis, gnuplot-style.
pub fn format_multi_series(
    title: &str,
    xlabel: &str,
    names: &[&str],
    series: &[Vec<(u32, f64)>],
) -> String {
    assert_eq!(names.len(), series.len());
    assert!(!series.is_empty());
    let mut out = format!("# {title}\n# {xlabel:>10}");
    for n in names {
        out.push_str(&format!(" {n:>16}"));
    }
    out.push('\n');
    let xs: Vec<u32> = series[0].iter().map(|p| p.0).collect();
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>12}"));
        for s in series {
            debug_assert_eq!(s[i].0, *x, "series must share x values");
            out.push_str(&format!(" {:>16.3}", s[i].1));
        }
        out.push('\n');
    }
    out
}

/// Formats rows as an aligned table with a header.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<&str>| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = fmt_row(headers.to_vec());
    out.push_str(&fmt_row(rule.iter().map(String::as_str).collect()));
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_series_format() {
        let a = vec![(64, 1.0), (128, 2.0)];
        let b = vec![(64, 3.0), (128, 4.0)];
        let s = format_multi_series("t", "size", &["a", "b"], &[a, b]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("1.000") && lines[2].contains("3.000"));
    }

    #[test]
    fn table_format() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "22222".into()],
            ],
        );
        assert_eq!(t, "name   value\n-----  -----\nalpha  1\nb      22222\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        format_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
