//! Reference answers computed in plain Rust from the generated inputs, and
//! the checks that compare each job's output against them. Nothing here
//! runs through rheem-rs; a mismatch counts the job as failed.

use std::collections::{HashMap, HashSet};

use rheem::core::value::{Dataset, Value};
use rheem::datagen::tpch::TpchData;

/// The benchmark's normalisation of a word: strip non-alphanumerics at both
/// ends (the `stem` UDF of the shared-prefix jobs).
pub fn stem(word: &str) -> &str {
    word.trim_matches(|c: char| !c.is_alphanumeric())
}

/// Occurrences of each whitespace-separated word, optionally stemmed.
pub fn word_counts(lines: &[String], stemmed: bool) -> HashMap<String, i64> {
    let mut counts: HashMap<String, i64> = HashMap::new();
    for w in lines.iter().flat_map(|l| l.split_whitespace()) {
        let w = if stemmed { stem(w) } else { w };
        *counts.entry(w.to_string()).or_default() += 1;
    }
    counts
}

/// Number of stemmed words longer than six characters.
pub fn long_stems(lines: &[String]) -> i64 {
    lines.iter().flat_map(|l| l.split_whitespace()).filter(|w| stem(w).len() > 6).count() as i64
}

/// A WordCount sink holds one `(word, count)` pair per distinct word.
pub fn check_word_counts(sink: &Dataset, expected: &HashMap<String, i64>) -> Result<(), String> {
    if sink.len() != expected.len() {
        return Err(format!("{} distinct words, expected {}", sink.len(), expected.len()));
    }
    let mut seen = HashSet::with_capacity(sink.len());
    for v in sink.iter() {
        let (Some(w), Some(n)) = (v.field(0).as_str(), v.field(1).as_int()) else {
            return Err(format!("malformed word count {v:?}"));
        };
        if expected.get(w) != Some(&n) || !seen.insert(w) {
            return Err(format!("word {w:?}: got {n}, expected {:?}", expected.get(w)));
        }
    }
    Ok(())
}

/// A count sink holds exactly one integer.
pub fn check_count(sink: &Dataset, expected: i64) -> Result<(), String> {
    match sink.as_slice() {
        [v] if v.as_int() == Some(expected) => Ok(()),
        other => Err(format!("count sink {other:?}, expected [{expected}]")),
    }
}

fn int(v: &Value, i: usize) -> i64 {
    v.field(i).as_int().expect("generated TPC-H field is an integer")
}

/// TPC-H Q5 by hash joins: revenue per nation of `region` for orders from
/// `year` whose customer and supplier share the nation, by revenue
/// descending.
pub fn q5(data: &TpchData, region: &str, year: i64) -> Vec<(String, f64)> {
    let regionkey =
        data.region.iter().find(|r| r.field(1).as_str() == Some(region)).map(|r| int(r, 0));
    let nation_name: HashMap<i64, &str> = data
        .nation
        .iter()
        .filter(|n| Some(int(n, 2)) == regionkey)
        .map(|n| (int(n, 0), n.field(1).as_str().expect("nation name")))
        .collect();
    let in_region = |rows: &[Value]| -> HashMap<i64, i64> {
        rows.iter()
            .filter(|r| nation_name.contains_key(&int(r, 2)))
            .map(|r| (int(r, 0), int(r, 2)))
            .collect()
    };
    let customer_nation = in_region(&data.customer);
    let supplier_nation = in_region(&data.supplier);
    let order_nation: HashMap<i64, i64> = data
        .orders
        .iter()
        .filter(|o| int(o, 2) == year)
        .filter_map(|o| customer_nation.get(&int(o, 1)).map(|&n| (int(o, 0), n)))
        .collect();
    let mut revenue: HashMap<i64, f64> = HashMap::new();
    for l in &data.lineitem {
        let (Some(&cn), Some(&sn)) =
            (order_nation.get(&int(l, 0)), supplier_nation.get(&int(l, 1)))
        else {
            continue;
        };
        if cn == sn {
            let price = l.field(2).as_f64().expect("price");
            let discount = l.field(3).as_f64().expect("discount");
            *revenue.entry(cn).or_default() += price * (1.0 - discount);
        }
    }
    let mut out: Vec<(String, f64)> =
        revenue.into_iter().map(|(n, r)| (nation_name[&n].to_string(), r)).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Q5 rows match in order; revenues agree to a relative 1e-9 (the engine
/// may sum in another order).
pub fn check_q5(sink: &Dataset, expected: &[(String, f64)]) -> Result<(), String> {
    if sink.len() != expected.len() {
        return Err(format!("{} Q5 rows, expected {}", sink.len(), expected.len()));
    }
    for (v, (name, rev)) in sink.iter().zip(expected) {
        let got_rev = v.field(1).as_f64().unwrap_or(f64::NAN);
        if v.field(0).as_str() != Some(name.as_str())
            || (got_rev - rev).abs() > 1e-9 * rev.abs().max(1.0)
        {
            return Err(format!("Q5 row {v:?}, expected ({name}, {rev})"));
        }
    }
    Ok(())
}

/// SUPPLIER ⋈ CUSTOMER on nationkey, pairs per nation, by nation.
pub fn join_task(data: &TpchData) -> Vec<(i64, i64)> {
    let per_nation = |rows: &[Value]| {
        let mut m: HashMap<i64, i64> = HashMap::new();
        for r in rows {
            *m.entry(int(r, 2)).or_default() += 1;
        }
        m
    };
    let customers = per_nation(&data.customer);
    let mut out: Vec<(i64, i64)> = per_nation(&data.supplier)
        .into_iter()
        .filter_map(|(n, s)| customers.get(&n).map(|c| (n, s * c)))
        .collect();
    out.sort_unstable();
    out
}

pub fn check_join_task(sink: &Dataset, expected: &[(i64, i64)]) -> Result<(), String> {
    let mut got: Vec<(i64, i64)> = sink
        .iter()
        .map(|v| (v.field(0).as_int().unwrap_or(-1), v.field(1).as_int().unwrap_or(-1)))
        .collect();
    got.sort_unstable();
    if got == expected {
        Ok(())
    } else {
        Err(format!("join task {} rows differ from the reference's {}", got.len(), expected.len()))
    }
}

/// CrocoPR's top pages: at most 100 distinct pages of the link
/// intersection, ranks positive and descending, and their rank mass at
/// most 1 (PageRank distributes a total mass of 1).
pub fn check_crocopr(sink: &Dataset, pages: &HashSet<i64>) -> Result<(), String> {
    if sink.is_empty() || sink.len() > 100 || sink.len() > pages.len() {
        return Err(format!("{} top pages of {} in the intersection", sink.len(), pages.len()));
    }
    let mut seen = HashSet::new();
    let mut mass = 0.0;
    let mut prev = f64::INFINITY;
    for v in sink.iter() {
        let (Some(page), Some(rank)) = (v.field(0).as_int(), v.field(1).as_f64()) else {
            return Err(format!("malformed rank {v:?}"));
        };
        if !(pages.contains(&page) && seen.insert(page) && rank > 0.0 && rank <= prev) {
            return Err(format!("page {page} rank {rank} breaks the ranking"));
        }
        prev = rank;
        mass += rank;
    }
    if mass > 1.0 + 1e-9 {
        return Err(format!("rank mass {mass} exceeds 1"));
    }
    Ok(())
}

/// Pages of CrocoPR's link intersection: both ends of every non-loop edge
/// present in both communities.
pub fn crocopr_pages(a: &[(i64, i64)], b: &[(i64, i64)]) -> HashSet<i64> {
    let b: HashSet<&(i64, i64)> = b.iter().collect();
    a.iter().filter(|e| e.0 != e.1 && b.contains(e)).flat_map(|&(s, d)| [s, d]).collect()
}

/// Average hinge loss of weights `w` over `(label, f0, f1, ...)` points.
pub fn hinge_loss(points: &[Value], w: &[f64]) -> f64 {
    let total: f64 = points
        .iter()
        .map(|p| {
            let f = p.fields().expect("point is a tuple");
            let margin: f64 =
                w.iter().zip(&f[1..]).map(|(wi, x)| wi * x.as_f64().unwrap_or(0.0)).sum();
            (1.0 - f[0].as_f64().unwrap_or(0.0) * margin).max(0.0)
        })
        .sum();
    total / points.len().max(1) as f64
}

/// SGD's learned weights: `dims` finite values whose hinge loss stays under
/// `bound` (the all-zero start has loss 1).
pub fn check_sgd(sink: &Dataset, points: &[Value], dims: usize, bound: f64) -> Result<(), String> {
    let w: Vec<f64> = match sink.as_slice() {
        [v] => v.fields().unwrap_or(&[]).iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect(),
        other => return Err(format!("{} weight rows, expected 1", other.len())),
    };
    if w.len() != dims || w.iter().any(|x| !x.is_finite()) {
        return Err(format!("weights {w:?}"));
    }
    let loss = hinge_loss(points, &w);
    if loss < bound {
        Ok(())
    } else {
        Err(format!("hinge loss {loss} not under {bound}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn lines(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn word_count_reference_on_a_tiny_corpus() {
        let corpus = lines(&["the cat  the", "", "dog, the cat."]);
        let plain = word_counts(&corpus, false);
        assert_eq!(plain.len(), 4);
        assert_eq!(plain["the"], 3);
        assert_eq!(plain["cat"], 1);
        assert_eq!(plain["cat."], 1);
        let stemmed = word_counts(&corpus, true);
        assert_eq!(stemmed["cat"], 2);
        assert_eq!(stemmed["dog"], 1);
        assert_eq!(long_stems(&lines(&["abcdefg abcdef, (abcdefgh)"])), 2);
    }

    #[test]
    fn word_count_check_rejects_any_difference() {
        let expected = word_counts(&lines(&["a b a"]), false);
        let pair = |w: &str, n: i64| Value::pair(Value::from(w), Value::from(n));
        let good: Dataset = Arc::new(vec![pair("b", 1), pair("a", 2)]);
        assert!(check_word_counts(&good, &expected).is_ok());
        let wrong: Dataset = Arc::new(vec![pair("b", 1), pair("a", 3)]);
        assert!(check_word_counts(&wrong, &expected).is_err());
        let dup: Dataset = Arc::new(vec![pair("a", 2), pair("a", 2)]);
        assert!(check_word_counts(&dup, &expected).is_err());
        let short: Dataset = Arc::new(vec![pair("a", 2)]);
        assert!(check_word_counts(&short, &expected).is_err());
    }

    #[test]
    fn q5_and_join_references_agree_with_a_hand_computed_case() {
        let data = rheem::datagen::tpch::generate(0.02, 3);
        let rows = q5(&data, "ASIA", 1995);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
        let oracle = rheem::datagen::tpch::q5_reference(&data, "ASIA", 1995);
        assert_eq!(rows.len(), oracle.len());
        for ((n, r), (on, or)) in rows.iter().zip(&oracle) {
            assert_eq!(n, on);
            assert!((r - or).abs() < 1e-6);
        }
        assert_eq!(join_task(&data), rheem::dataciv::join_task_reference(&data));
    }

    #[test]
    fn crocopr_invariants() {
        let pages: HashSet<i64> = [1, 2, 3].into_iter().collect();
        let rank = |p: i64, r: f64| Value::pair(Value::from(p), Value::from(r));
        assert!(check_crocopr(&Arc::new(vec![rank(2, 0.5), rank(1, 0.3)]), &pages).is_ok());
        assert!(check_crocopr(&Arc::new(vec![rank(1, 0.3), rank(2, 0.5)]), &pages).is_err());
        assert!(check_crocopr(&Arc::new(vec![rank(9, 0.5)]), &pages).is_err());
        assert!(check_crocopr(&Arc::new(vec![rank(1, 0.7), rank(2, 0.6)]), &pages).is_err());
        let a = [(1, 2), (2, 2), (3, 4)];
        let b = [(1, 2), (2, 2), (4, 3)];
        assert_eq!(crocopr_pages(&a, &b), [1, 2].into_iter().collect());
    }

    #[test]
    fn sgd_loss_bound() {
        let p = |l: f64, x: f64| Value::Tuple(vec![Value::from(l), Value::from(x)].into());
        let points = vec![p(1.0, 2.0), p(-1.0, -2.0)];
        assert_eq!(hinge_loss(&points, &[0.0]), 1.0);
        assert_eq!(hinge_loss(&points, &[1.0]), 0.0);
        let w = |x: f64| -> Dataset { Arc::new(vec![Value::Tuple(vec![Value::from(x)].into())]) };
        assert!(check_sgd(&w(1.0), &points, 1, 0.5).is_ok());
        assert!(check_sgd(&w(0.0), &points, 1, 0.5).is_err());
        assert!(check_sgd(&w(f64::NAN), &points, 1, 0.5).is_err());
    }
}
