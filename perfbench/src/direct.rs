//! Reference computations made apart from the program under test.
//!
//! Nothing here calls the `attrition` crates: the CSV files are read
//! with a hand-written reader, windows come from plain month arithmetic,
//! and stability follows the paper's definition literally:
//!
//! ```text
//! S(p,k) = α^(c − l)   when c > 0, else 0
//! Stability(k) = Σ_{p ∈ u_k} S(p,k) / Σ_{p ∈ I} S(p,k)     (1.0 when the sum is 0)
//! ```
//!
//! where `c` / `l` count the windows before `k` that do / do not contain
//! `p`. With α = 2 every `S` is a power of two between 2^-k and 2^k, so
//! both sums are exact in an `f64` whatever the summation order, and the
//! ratio is the correctly rounded quotient — the reference value is
//! therefore bit-identical to any correct implementation, which is what
//! lets the checks compare scores exactly.

use std::collections::{BTreeMap, HashMap};

/// A calendar date as written in the data files (`YYYY-MM-DD`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ymd {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

impl Ymd {
    pub fn parse(text: &str) -> Result<Ymd, String> {
        let mut parts = text.split('-');
        let mut next = |what: &str| -> Result<i64, String> {
            parts
                .next()
                .and_then(|p| p.parse::<i64>().ok())
                .ok_or_else(|| format!("bad {what} in date {text:?}"))
        };
        let (year, month, day) = (next("year")?, next("month")?, next("day")?);
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(format!("date {text:?} out of range"));
        }
        Ok(Ymd {
            year: year as i32,
            month: month as u32,
            day: day as u32,
        })
    }

    /// Months since year 0, the axis window indices are cut from.
    pub fn month_index(self) -> i64 {
        self.year as i64 * 12 + self.month as i64 - 1
    }

    /// The first day of the month `n` months after this date's month.
    pub fn first_of_month_plus(self, n: i64) -> Ymd {
        let m = self.month_index() + n;
        Ymd {
            year: m.div_euclid(12) as i32,
            month: (m.rem_euclid(12) + 1) as u32,
            day: 1,
        }
    }
}

impl std::fmt::Display for Ymd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// One receipt row of `receipts.csv`.
#[derive(Debug, Clone)]
pub struct Receipt {
    pub customer: u64,
    pub date: Ymd,
    pub items: Vec<u32>,
}

/// Read `receipts.csv` (`customer,date,total_cents,items` with the items
/// space-separated), in file order.
pub fn read_receipts(text: &str) -> Result<Vec<Receipt>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if n == 0 && line.starts_with("customer") {
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(4, ',');
        let bad = || format!("receipts line {}: malformed {line:?}", n + 1);
        let customer = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        let date = Ymd::parse(fields.next().ok_or_else(bad)?)?;
        let _cents = fields.next().ok_or_else(bad)?;
        let items = fields
            .next()
            .unwrap_or("")
            .split_ascii_whitespace()
            .map(|i| i.parse::<u32>().map_err(|_| bad()))
            .collect::<Result<Vec<_>, _>>()?;
        out.push(Receipt {
            customer,
            date,
            items,
        });
    }
    Ok(out)
}

/// Read the `item,segment` columns of `taxonomy.csv`.
pub fn read_segments(text: &str) -> Result<HashMap<u32, u32>, String> {
    let mut out = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        if n == 0 && line.starts_with("item") {
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(3, ',');
        let mut num = || -> Option<u32> { fields.next()?.trim().parse().ok() };
        match (num(), num()) {
            (Some(item), Some(segment)) => {
                out.insert(item, segment);
            }
            _ => return Err(format!("taxonomy line {}: malformed {line:?}", n + 1)),
        }
    }
    Ok(out)
}

/// Read `labels.csv` (`customer,cohort,onset_month`): the defector flag
/// per customer and the onset month defectors share.
pub fn read_labels(text: &str) -> Result<(HashMap<u64, bool>, Option<u32>), String> {
    let mut out = HashMap::new();
    let mut onset = None;
    for (n, line) in text.lines().enumerate() {
        if n == 0 && line.starts_with("customer") {
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let bad = || format!("labels line {}: malformed {line:?}", n + 1);
        if fields.len() != 3 {
            return Err(bad());
        }
        let customer: u64 = fields[0].parse().map_err(|_| bad())?;
        let defector = match fields[1] {
            "defector" => {
                onset = Some(fields[2].parse::<u32>().map_err(|_| bad())?);
                true
            }
            "loyal" => false,
            _ => return Err(bad()),
        };
        out.insert(customer, defector);
    }
    Ok((out, onset))
}

/// One stability value with its numerator and denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub value: f64,
    pub present: f64,
    pub total: f64,
}

/// Stability of `current` against the history windows, straight from
/// the definition. Each history entry is one window's item set (sorted,
/// deduplicated); empty windows count as windows without the item.
pub fn stability(history: &[Vec<u32>], current: &[u32], alpha: f64) -> Point {
    let k = history.len() as i32;
    let mut c: BTreeMap<u32, i32> = BTreeMap::new();
    for window in history {
        for &item in window {
            *c.entry(item).or_insert(0) += 1;
        }
    }
    let s = |count: i32| alpha.powi(count - (k - count));
    let total: f64 = c.values().map(|&count| s(count)).sum();
    let present: f64 = current
        .iter()
        .filter_map(|item| c.get(item).map(|&count| s(count)))
        .sum();
    let value = if total > 0.0 { present / total } else { 1.0 };
    Point {
        value,
        present,
        total,
    }
}

/// Sort and deduplicate an item list into a window set.
pub fn item_set(mut items: Vec<u32>) -> Vec<u32> {
    items.sort_unstable();
    items.dedup();
    items
}

/// Mann–Whitney AUROC: the share of (defector, loyal) pairs in which the
/// defector scores higher, ties counting one half. `NaN` when a class is
/// empty. Counted exactly in integers over tie groups.
pub fn auroc(labels: &[bool], scores: &[f64]) -> f64 {
    let mut pairs: Vec<(f64, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n_pos = labels.iter().filter(|&&l| l).count() as u128;
    let n_neg = labels.len() as u128 - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return f64::NAN;
    }
    // Twice the Mann–Whitney U, so half-credit ties stay integral.
    let mut twice_u: u128 = 0;
    let mut neg_below: u128 = 0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        let (mut pos, mut neg) = (0u128, 0u128);
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            if pairs[j].1 {
                pos += 1;
            } else {
                neg += 1;
            }
            j += 1;
        }
        twice_u += 2 * pos * neg_below + pos * neg;
        neg_below += neg;
        i = j;
    }
    twice_u as f64 / (2 * n_pos * n_neg) as f64
}

/// The stability AUROC of every window of the Figure 1 experiment,
/// computed from the generated files: items projected to segments,
/// windows of `w_months` anchored at the first month of the earliest
/// receipt, attrition score `1 − stability`.
pub fn fig1_stability_auroc(
    receipts: &[Receipt],
    segments: &HashMap<u32, u32>,
    defectors: &HashMap<u64, bool>,
    alpha: f64,
    w_months: i64,
) -> Result<Vec<f64>, String> {
    let origin = receipts
        .iter()
        .map(|r| r.date.month_index())
        .min()
        .ok_or("no receipts")?;
    let last = receipts.iter().map(|r| r.date.month_index()).max().unwrap();
    let n_windows = ((last - origin) / w_months + 1) as usize;
    let mut baskets: BTreeMap<u64, Vec<Vec<u32>>> = BTreeMap::new();
    for r in receipts {
        let k = ((r.date.month_index() - origin) / w_months) as usize;
        let windows = baskets
            .entry(r.customer)
            .or_insert_with(|| vec![Vec::new(); n_windows]);
        for item in &r.items {
            let segment = segments
                .get(item)
                .ok_or_else(|| format!("item {item} missing from the taxonomy"))?;
            windows[k].push(*segment);
        }
    }
    let labels: Vec<bool> = baskets
        .keys()
        .map(|c| defectors.get(c).copied().unwrap_or(false))
        .collect();
    let sets: Vec<Vec<Vec<u32>>> = baskets
        .into_values()
        .map(|ws| ws.into_iter().map(item_set).collect())
        .collect();
    Ok((0..n_windows)
        .map(|k| {
            let scores: Vec<f64> = sets
                .iter()
                .map(|ws| 1.0 - stability(&ws[..k], &ws[k], alpha).value)
                .collect();
            auroc(&labels, &scores)
        })
        .collect())
}

/// Standard deviation of the AUROC of an uninformative score with these
/// class sizes (the Mann–Whitney null distribution).
pub fn null_auroc_sd(n_pos: usize, n_neg: usize) -> f64 {
    let (p, n) = (n_pos as f64, n_neg as f64);
    ((p + n + 1.0) / (12.0 * p * n)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Windows {1,2}, {1,2}, then {1}: S(1) = S(2) = 2^2, stability 4/8.
        let p = stability(&[vec![1, 2], vec![1, 2]], &[1], 2.0);
        assert_eq!((p.value, p.present, p.total), (0.5, 4.0, 8.0));
        assert_eq!(stability(&[], &[1], 2.0).value, 1.0);
    }

    #[test]
    fn auroc_counts_ties_as_half() {
        assert_eq!(
            auroc(&[true, true, false, false], &[0.9, 0.6, 0.7, 0.1]),
            0.75
        );
        assert_eq!(auroc(&[true, false], &[0.5, 0.5]), 0.5);
        assert!(auroc(&[true, true], &[0.1, 0.2]).is_nan());
    }

    #[test]
    fn month_arithmetic() {
        let d = Ymd::parse("2012-11-17").unwrap();
        assert_eq!(d.first_of_month_plus(2).to_string(), "2013-01-01");
        assert_eq!(d.first_of_month_plus(0).to_string(), "2012-11-01");
    }
}
