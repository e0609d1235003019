//! Minimal plain-text table rendering for the experiment binaries.

/// Render rows as a fixed-width table with a header.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:>w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Format a byte count with a binary-prefix unit.
pub fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Format a ratio as `1.23x`.
pub(crate) fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        return "inf".into();
    }
    format!("{:.2}x", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render(
            &["algo", "bytes"],
            &[
                vec!["COnfLUX".into(), "123".into()],
                vec!["MKL".into(), "456789".into()],
            ],
        );
        assert!(t.contains("| algo    | bytes  |"));
        assert!(t.contains("| COnfLUX |    123 |"));
        let lines: Vec<&str> = t.lines().collect();
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len), "all lines same width");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_bytes(512.0), "512.00 B");
        assert_eq!(human_bytes(2048.0), "2.00 KiB");
        assert_eq!(human_bytes(3.0 * 1024.0 * 1024.0), "3.00 MiB");
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }
}
