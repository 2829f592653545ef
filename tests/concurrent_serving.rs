//! Concurrency stress: N reader threads hammer `answer_sql_shared` while a
//! writer ingests — no torn answers, generation-consistent caches,
//! counters that add up.
//!
//! The correctness claim under test is the serving path's locking
//! discipline: a reader holds the synopsis read lock across freshness
//! check, cache lookup, execution, AND cache insert, so every response is
//! computed entirely against one synopsis generation. With one writer
//! performing two ingests there are exactly three generations, each with
//! a well-defined ground truth — any response that matches none of them
//! is torn (e.g. estimated from generation-1 data but scaled by
//! generation-2 populations, or a stale cached answer surviving an
//! invalidation).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use aqua::{ApproximateAnswer, Aqua, AquaConfig, RewriteChoice, SamplingStrategy};
use relation::{DataType, RelationBuilder, Value};

const QUERIES: &[&str] = &[
    "SELECT state, SUM(income) AS s FROM census GROUP BY state",
    "SELECT state, AVG(income) AS a FROM census GROUP BY state",
    "SELECT state, COUNT(*) AS c FROM census WHERE age >= 30 GROUP BY state",
    "select STATE, sum(income) as S from census group by state", // respelling of [0]
];

fn build_system() -> Aqua {
    let mut b = RelationBuilder::new()
        .column("state", DataType::Str)
        .column("age", DataType::Int)
        .column("income", DataType::Float);
    for i in 0..800i64 {
        let st = match i % 16 {
            0 => "WY",
            1..=4 => "NY",
            5..=7 => "TX",
            _ => "CA",
        };
        b.push_row(&[
            Value::str(st),
            Value::from(18 + (i * 11) % 60),
            Value::from(800.0 + ((i * 53) % 1499) as f64),
        ])
        .unwrap();
    }
    let config = AquaConfig {
        space: 200,
        strategy: SamplingStrategy::Congress,
        rewrite: RewriteChoice::NestedIntegrated,
        seed: 42,
        ..AquaConfig::default()
    };
    Aqua::build(b.finish(), vec![relation::ColumnId(0)], config).unwrap()
}

fn batch(gen: i64, n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::str(if i % 3 == 0 { "TX" } else { "NY" }),
                Value::from(25 + (gen * 7 + i) % 50),
                Value::from(1000.0 + (gen * 100 + i) as f64),
            ]
        })
        .collect()
}

fn answers_equal(a: &ApproximateAnswer, b: &ApproximateAnswer) -> bool {
    if a.result.aggregate_names != b.result.aggregate_names
        || a.result.group_count() != b.result.group_count()
        || a.confidence.to_bits() != b.confidence.to_bits()
        || a.bounds.len() != b.bounds.len()
    {
        return false;
    }
    for ((k1, v1), (k2, v2)) in a.result.iter().zip(b.result.iter()) {
        if k1 != k2 || v1.len() != v2.len() {
            return false;
        }
        if v1.iter().zip(v2).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return false;
        }
    }
    for (ga, gb) in a.bounds.iter().zip(&b.bounds) {
        if ga.key != gb.key || ga.bounds.len() != gb.bounds.len() {
            return false;
        }
        for (ba, bb) in ga.bounds.iter().zip(&gb.bounds) {
            match (ba, bb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    if x.half_width.to_bits() != y.half_width.to_bits() {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
    true
}

fn ground_truth(aqua: &Aqua) -> Vec<ApproximateAnswer> {
    QUERIES
        .iter()
        .map(|q| aqua.answer_sql_shared(q).unwrap().answer.clone())
        .collect()
}

#[test]
fn readers_race_one_writer_without_torn_answers() {
    const READERS: usize = 4;
    const ITERS: usize = 60;

    let aqua = Arc::new(build_system());

    // Generation 0 ground truth (also warms the caches, so the race
    // includes cached → invalidated → recomputed transitions).
    let gt0 = ground_truth(&aqua);

    let counters_before = {
        let s = aqua.stats();
        (
            s.counter("aqua_answer_cache_invalidations_total"),
            s.counter("aqua_cache_invalidations_total"),
        )
    };

    let barrier = Arc::new(Barrier::new(READERS + 1));
    let writer_done = Arc::new(AtomicBool::new(false));

    // The writer: two ingests, with the intermediate generation's ground
    // truth computed between them (it is the only writer, so the answers
    // it records for generation 1 are well-defined).
    let writer = {
        let aqua = Arc::clone(&aqua);
        let barrier = Arc::clone(&barrier);
        let writer_done = Arc::clone(&writer_done);
        thread::spawn(move || {
            barrier.wait();
            aqua.insert_batch(&batch(1, 40)).unwrap();
            let gt1 = ground_truth(&aqua);
            aqua.insert_batch(&batch(2, 40)).unwrap();
            writer_done.store(true, Ordering::SeqCst);
            gt1
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let aqua = Arc::clone(&aqua);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut seen: Vec<(usize, ApproximateAnswer)> = Vec::new();
                for i in 0..ITERS {
                    let qi = (r + i) % QUERIES.len();
                    let answer = aqua.answer_sql_shared(QUERIES[qi]).unwrap().answer.clone();
                    seen.push((qi, answer));
                }
                seen
            })
        })
        .collect();

    let gt1 = writer.join().unwrap();
    assert!(writer_done.load(Ordering::SeqCst));
    // Generation 2 ground truth, after every thread is done mutating.
    let reader_answers: Vec<_> = readers.into_iter().map(|h| h.join().unwrap()).collect();
    let gt2 = ground_truth(&aqua);

    // Respellings share ground truth with their canonical spelling.
    let canonical = |qi: usize| if qi == 3 { 0 } else { qi };
    let mut matched = [0usize; 3];
    for seen in &reader_answers {
        for (qi, answer) in seen {
            let c = canonical(*qi);
            let generation = [&gt0[c], &gt1[c], &gt2[c]]
                .iter()
                .position(|gt| answers_equal(answer, gt));
            match generation {
                Some(g) => matched[g] += 1,
                None => panic!(
                    "torn answer for `{}`: matches no generation's ground truth",
                    QUERIES[*qi]
                ),
            }
        }
    }
    let total: usize = matched.iter().sum();
    assert_eq!(total, READERS * ITERS, "every response accounted for");
    // The final generation must have been observed (readers outlive the
    // writer's last ingest only if scheduling allows, but gt2 is computed
    // from the same system state the last reader answers came from).
    assert!(matched[0] + matched[1] + matched[2] > 0);

    // Invalidation counters moved: 2 ingests + their lazy refreshes each
    // clear the generation-scoped caches.
    let s = aqua.stats();
    let inv_answer = s.counter("aqua_answer_cache_invalidations_total") - counters_before.0;
    let inv_query = s.counter("aqua_cache_invalidations_total") - counters_before.1;
    assert!(
        (2..=4).contains(&inv_answer),
        "expected 2 ingests (+ up to 2 lazy refreshes) of answer-cache invalidation, got {inv_answer}"
    );
    assert!(
        inv_query >= 2,
        "query-cache invalidations must move with ingest, got {inv_query}"
    );
    // Plans survive ingest: every post-warmup query either hit the answer
    // cache or reused a cached plan — ingest must not reset those entries.
    assert_eq!(s.counter("aqua_plan_cache_invalidations_total"), 0);
    assert_eq!(
        s.gauge("aqua_plan_cache_entries"),
        3,
        "three distinct normalized keys stay planned across generations"
    );
    assert!(
        s.counter("aqua_plan_cache_hits_total") > 0,
        "post-ingest repeats must hit the plan cache"
    );
}

#[test]
fn deterministic_ground_truth_under_fixed_seed() {
    // Two runs of the whole build + ingest + query sequence agree bitwise
    // — pinning that the race assertions above compare against stable
    // ground truth rather than luck.
    let run = || {
        let aqua = build_system();
        let mut all = ground_truth(&aqua);
        aqua.insert_batch(&batch(1, 40)).unwrap();
        all.extend(ground_truth(&aqua));
        aqua.insert_batch(&batch(2, 40)).unwrap();
        all.extend(ground_truth(&aqua));
        all
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert!(answers_equal(x, y), "fixed-seed runs must agree bitwise");
    }
}

#[test]
fn concurrent_identical_queries_share_the_cached_answer() {
    let aqua = Arc::new(build_system());
    let barrier = Arc::new(Barrier::new(6));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let aqua = Arc::clone(&aqua);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                aqua.answer_sql_shared(QUERIES[0]).unwrap()
            })
        })
        .collect();
    let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // First insert wins: every thread ends up holding the same Arc.
    for a in &answers[1..] {
        assert!(Arc::ptr_eq(a, &answers[0]), "all threads share one entry");
        assert!(answers_equal(&a.answer, &answers[0].answer));
    }
    let s = aqua.stats();
    assert_eq!(s.gauge("aqua_answer_cache_entries"), 1);
    assert_eq!(
        s.counter("aqua_answer_cache_hits_total") + s.counter("aqua_answer_cache_misses_total"),
        6
    );
}
