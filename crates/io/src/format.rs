//! A plain-text design format with round-trip parsing.
//!
//! ```text
//! DGR-DESIGN v1
//! grid <width> <height> <layers>
//! tracks <e0> <e1> ... <eN-1>        # one capacity per edge id
//! beta <c0> <c1> ... <cM-1>          # one β weight per g-cell id
//! net <name> <x0> <y0> <x1> <y1> ...  # one line per net
//! ```
//!
//! Capacities are written post-deduction (the Eq. 1 result) and floats use
//! Rust's shortest round-trip representation, so a parsed design routes
//! **bit-identically** to the generated one.

use dgr_grid::{CapacityModel, Design, GcellGrid, GridError, Net, Point};

use crate::IoError;

/// Serializes `design` to the text format.
pub fn write_design(design: &Design) -> String {
    let mut out = String::new();
    out.push_str("DGR-DESIGN v1\n");
    out.push_str(&format!(
        "grid {} {} {}\n",
        design.grid.width(),
        design.grid.height(),
        design.num_layers
    ));
    out.push_str("tracks");
    for &c in design.capacity.as_slice() {
        out.push_str(&format!(" {c}"));
    }
    out.push('\n');
    out.push_str("beta");
    for &b in design.capacity.beta_slice() {
        out.push_str(&format!(" {b}"));
    }
    out.push('\n');
    for net in &design.nets {
        out.push_str(&format!("net {}", net.name));
        for p in &net.pins {
            out.push_str(&format!(" {} {}", p.x, p.y));
        }
        out.push('\n');
    }
    out
}

/// Parses a design from the text format.
///
/// # Errors
///
/// Returns [`IoError::Parse`] with the offending line on malformed
/// input, or [`IoError::Grid`] if the parsed design fails validation.
pub fn parse_design(text: &str) -> Result<Design, IoError> {
    let err = |line: usize, message: &str| IoError::Parse {
        line,
        message: message.to_owned(),
    };
    let mut lines = text.lines().enumerate();
    let (i, header) = lines.next().ok_or_else(|| err(1, "empty file"))?;
    if header.trim() != "DGR-DESIGN v1" {
        return Err(err(i + 1, "missing DGR-DESIGN v1 header"));
    }
    let (i, grid_line) = lines.next().ok_or_else(|| err(2, "missing grid line"))?;
    let parts: Vec<&str> = grid_line.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "grid" {
        return Err(err(i + 1, "expected `grid <w> <h> <layers>`"));
    }
    let parse_u32 = |s: &str, line: usize| -> Result<u32, IoError> {
        s.parse().map_err(|_| err(line, "invalid integer"))
    };
    let width = parse_u32(parts[1], i + 1)?;
    let height = parse_u32(parts[2], i + 1)?;
    let layers = parse_u32(parts[3], i + 1)?;
    let grid = GcellGrid::new(width, height)?;

    let (tracks_at, tracks_line) = lines.next().ok_or_else(|| err(3, "missing tracks line"))?;
    let mut it = tracks_line.split_whitespace();
    if it.next() != Some("tracks") {
        return Err(err(tracks_at + 1, "expected `tracks ...`"));
    }
    let tracks: Result<Vec<f32>, IoError> = it
        .map(|s| {
            s.parse::<f32>()
                .map_err(|_| err(tracks_at + 1, "invalid capacity"))
        })
        .collect();
    let tracks = tracks?;

    // optional beta line (older files omit it → uniform 1.0)
    let mut lines = lines.peekable();
    let mut beta_at = None;
    let beta = match lines.peek() {
        Some((_, l)) if l.trim_start().starts_with("beta") => {
            let (i, l) = lines.next().expect("peeked");
            beta_at = Some(i);
            let vals: Result<Vec<f32>, IoError> = l
                .split_whitespace()
                .skip(1)
                .map(|s| s.parse::<f32>().map_err(|_| err(i + 1, "invalid beta")))
                .collect();
            vals?
        }
        _ => vec![1.0; grid.num_cells()],
    };
    let capacity = CapacityModel::from_parts(&grid, tracks, beta).map_err(|e| match e {
        // point at the offending line, not just the buffer
        GridError::NonFinite { what, .. } => {
            let at = if what == "beta" { beta_at } else { None };
            err(at.unwrap_or(tracks_at) + 1, &e.to_string())
        }
        e => e.into(),
    })?;

    let mut nets = Vec::new();
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if it.next() != Some("net") {
            return Err(err(i + 1, "expected `net <name> <pins...>`"));
        }
        let name = it.next().ok_or_else(|| err(i + 1, "missing net name"))?;
        let coords: Result<Vec<i32>, IoError> = it
            .map(|s| {
                s.parse::<i32>()
                    .map_err(|_| err(i + 1, "invalid coordinate"))
            })
            .collect();
        let coords = coords?;
        if coords.is_empty() || coords.len() % 2 != 0 {
            return Err(err(i + 1, "pin list must be non-empty x/y pairs"));
        }
        let pins = coords.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
        nets.push(Net::new(name, pins));
    }
    Ok(Design::new(grid, capacity, nets, layers)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ispdlike::{IspdLikeConfig, IspdLikeGenerator};

    #[test]
    fn roundtrip_preserves_everything_relevant() {
        let d = IspdLikeGenerator::new(IspdLikeConfig {
            num_nets: 40,
            width: 24,
            height: 18,
            ..IspdLikeConfig::default()
        })
        .generate()
        .unwrap();
        let text = write_design(&d);
        let parsed = parse_design(&text).unwrap();
        assert_eq!(parsed.grid, d.grid);
        assert_eq!(parsed.num_layers, d.num_layers);
        assert_eq!(parsed.nets, d.nets);
        // Rust float Display is shortest-roundtrip: bit-exact recovery
        assert_eq!(parsed.capacity, d.capacity);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_design("NOT-A-DESIGN\n"),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_malformed_net_line() {
        let text = "DGR-DESIGN v1\ngrid 4 4 2\ntracks 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\nnet broken 1\n";
        assert!(matches!(
            parse_design(text),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn rejects_out_of_grid_pin() {
        let text = "DGR-DESIGN v1\ngrid 4 4 2\ntracks 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\nnet a 0 0 9 9\n";
        assert!(matches!(parse_design(text), Err(IoError::Grid(_))));
    }

    #[test]
    fn rejects_non_finite_capacities_naming_the_line() {
        let ones = " 1".repeat(23);
        for (line, text) in [
            (
                3,
                format!("DGR-DESIGN v1\ngrid 4 4 2\ntracks NaN{ones}\nnet a 0 0 3 3\n"),
            ),
            (
                3,
                format!("DGR-DESIGN v1\ngrid 4 4 2\ntracks{ones} inf\nnet a 0 0 3 3\n"),
            ),
            (
                4,
                format!(
                    "DGR-DESIGN v1\ngrid 4 4 2\ntracks 1{ones}\nbeta{} NaN\nnet a 0 0 3 3\n",
                    " 1".repeat(15)
                ),
            ),
        ] {
            match parse_design(&text) {
                Err(IoError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{message}");
                    assert!(message.contains("not a finite number"), "{message}");
                }
                other => panic!("expected a parse error at line {line}, got {other:?}"),
            }
        }
        // negative tracks stay legal: blocked edges
        let text = format!("DGR-DESIGN v1\ngrid 4 4 2\ntracks -2{ones}\nnet a 0 0 3 3\n");
        assert!(parse_design(&text).is_ok());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "DGR-DESIGN v1\ngrid 4 4 2\ntracks 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n\n# comment\nnet a 0 0 3 3\n";
        let d = parse_design(text).unwrap();
        assert_eq!(d.num_nets(), 1);
    }
}
