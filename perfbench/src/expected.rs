//! The pinned expected outputs (`expected.tsv`): per cell, the canonical
//! fingerprint and the three client metrics.

use std::collections::BTreeMap;

/// Expected outputs keyed by `program@scale.cell` (e.g. `pmd@4.M-2cs`).
#[derive(Debug, Default)]
pub struct Expected {
    cells: BTreeMap<String, (u64, [usize; 3])>,
}

impl Expected {
    /// Parses the file: one cell per line, `key fingerprint cg_edges
    /// poly_sites may_fail_casts`, `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut cells = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("expected.tsv line {}: `{line}`", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [key, fp, cg, poly, casts] = f[..] else {
                return Err(bad());
            };
            let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16).map_err(|_| bad())?;
            let num = |s: &str| s.parse::<usize>().map_err(|_| bad());
            cells.insert(key.to_owned(), (fp, [num(cg)?, num(poly)?, num(casts)?]));
        }
        Ok(Expected { cells })
    }

    pub fn fingerprint(&self, key: &str) -> Option<u64> {
        self.cells.get(key).map(|c| c.0)
    }

    pub fn clients(&self, key: &str) -> Option<[usize; 3]> {
        self.cells.get(key).map(|c| c.1)
    }
}

/// Renders one line of the file.
pub fn line(key: &str, fp: u64, clients: [usize; 3]) -> String {
    format!(
        "{key}\t{fp:#018x}\t{}\t{}\t{}",
        clients[0], clients[1], clients[2]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_line() {
        let text = format!("# header\n{}\n", line("pmd@4.M-2cs", 0xabc, [1, 2, 3]));
        let e = Expected::parse(&text).expect("parses");
        assert_eq!(e.fingerprint("pmd@4.M-2cs"), Some(0xabc));
        assert_eq!(e.clients("pmd@4.M-2cs"), Some([1, 2, 3]));
        assert_eq!(e.fingerprint("pmd@4.2cs"), None);
    }

    #[test]
    fn rejects_short_lines() {
        assert!(Expected::parse("pmd@4.2cs 0x1 2 3").is_err());
    }
}
