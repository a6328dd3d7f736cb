//! Concurrent record-vs-report consistency for the stage-level latency
//! decomposition: writer threads hammer a live engine while a reader
//! snapshots reports mid-flight, checking the invariants the
//! instrumentation order guarantees (per-stage counts never exceed the
//! end-to-end count, every snapshot is internally coherent) rather
//! than exact counts, which are unknowable mid-run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use privehd_core::telemetry::Stage;
use privehd_core::{HdModel, Hypervector};
use privehd_serve::{ServeConfig, ServeEngine, ServeReport, ShardedRegistry};

const DIM: usize = 128;

fn trained_registry() -> Arc<ShardedRegistry> {
    let mut model = HdModel::new(2, DIM).unwrap();
    model
        .bundle(0, &Hypervector::from_vec(vec![1.0; DIM]))
        .unwrap();
    model
        .bundle(1, &Hypervector::from_vec(vec![-1.0; DIM]))
        .unwrap();
    Arc::new(ShardedRegistry::with_model(model, "stage-test").unwrap())
}

/// The engine-side stages recorded once per *served* request, whose
/// counts therefore can never exceed the end-to-end completion count.
const PER_REQUEST_ENGINE_STAGES: [Stage; 3] = [Stage::QueueWait, Stage::BatchWait, Stage::Predict];

fn assert_coherent(report: &ServeReport, where_: &str) {
    let e2e = report.completed + report.failed;
    for row in &report.stages {
        if PER_REQUEST_ENGINE_STAGES.contains(&row.stage) {
            assert!(
                row.count <= e2e,
                "{where_}: stage {} count {} exceeds end-to-end count {e2e}",
                row.stage,
                row.count
            );
        }
        if row.stage == Stage::SnapshotResolve {
            // Once per batch, and batches never outnumber completions.
            assert!(
                row.count <= report.batches,
                "{where_}: snapshot_resolve count {} exceeds batch count {}",
                row.count,
                report.batches
            );
        }
        assert!(
            row.count > 0,
            "{where_}: zero-count stage rows must be filtered from reports"
        );
        assert!(
            row.p50 <= row.p95 && row.p95 <= row.p99,
            "{where_}: stage {} quantiles out of order",
            row.stage
        );
    }
}

#[test]
fn concurrent_stage_recording_never_overcounts() {
    let engine = Arc::new(
        ServeEngine::start(
            trained_registry(),
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: three submitter threads driving requests to completion.
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sign = if (served + w).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    let query = Hypervector::from_vec(vec![sign; DIM]);
                    if let Ok(pending) = engine.submit_default(query) {
                        pending.wait().unwrap();
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Reader: snapshots the report mid-flight and checks coherence on
    // every snapshot, racing the writers' record path.
    let reader = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let report = engine.metrics().report(Duration::from_secs(1));
                assert_coherent(&report, "mid-flight");
                snapshots += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            snapshots
        })
    };

    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let served: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let snapshots = reader.join().unwrap();
    assert!(served > 0, "writers made no progress");
    assert!(snapshots > 0, "reader made no progress");

    // Quiescent: with everything drained the counts are exact — every
    // served request recorded every per-request engine stage.
    let engine = Arc::into_inner(engine).expect("all clones joined");
    let report = engine.shutdown();
    assert_coherent(&report, "final");
    assert_eq!(report.completed, served);
    for stage in PER_REQUEST_ENGINE_STAGES {
        let row = report
            .stages
            .iter()
            .find(|r| r.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} row in the final report"));
        assert_eq!(
            row.count, served,
            "stage {stage} count disagrees with completions at quiescence"
        );
    }
}
