//! The concurrent-server determinism contract: a batch served by a
//! multi-worker pool must be *bitwise identical* — responses, counters,
//! residency — to the same batch served by the 1-worker serial
//! reference path, for any worker count.

use dg_par::Pool;
use dg_serve::{Request, ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

fn server_with_workers(workers: usize) -> Server {
    Server::with_pool(ServeConfig::small(), Pool::with_workers(workers)).unwrap()
}

/// Drive `batches` through a fresh server with `workers` workers and
/// return everything observable about the run.
fn drive(
    workers: usize,
    batches: &[Vec<Request>],
) -> (Vec<Vec<dg_serve::Response>>, dg_serve::ServeStats, (usize, usize), Vec<dg_serve::ServeStats>)
{
    let server = server_with_workers(workers);
    let responses = batches.iter().map(|b| server.run_batch(b)).collect();
    server.check_invariants();
    (responses, server.stats(), server.residency(), server.shard_stats())
}

fn workload_batches(seed: u64, batches: usize, len: usize) -> Vec<Vec<Request>> {
    let cfg = ServeConfig::small();
    let mut w = SimilarityWorkload::new(WorkloadSpec::tier1().with_seed(seed), &cfg);
    // Mix get-or-insert traffic with plain get/put so every request
    // variant crosses the batch path.
    (0..batches)
        .map(|i| if i % 2 == 0 { w.batch(len) } else { w.batch_mixed(len, 0.3) })
        .collect()
}

#[test]
fn parallel_batches_match_serial_reference() {
    let batches = workload_batches(0xD373, 8, 4096);
    let reference = drive(1, &batches);
    for workers in [2, 4, 8] {
        let parallel = drive(workers, &batches);
        assert_eq!(parallel.0, reference.0, "{workers}-worker responses diverged");
        assert_eq!(parallel.1, reference.1, "{workers}-worker aggregate stats diverged");
        assert_eq!(parallel.2, reference.2, "{workers}-worker residency diverged");
        assert_eq!(parallel.3, reference.3, "{workers}-worker per-shard stats diverged");
    }
}

#[test]
fn default_pool_matches_serial_reference() {
    // Whatever DG_PAR_THREADS / the host core count resolves to.
    let batches = workload_batches(0xFEED, 4, 8192);
    let reference = drive(1, &batches);
    let server = Server::new(ServeConfig::small()).unwrap();
    let responses: Vec<_> = batches.iter().map(|b| server.run_batch(b)).collect();
    assert_eq!(responses, reference.0);
    assert_eq!(server.stats(), reference.1);
    assert_eq!(server.residency(), reference.2);
}

#[test]
fn batch_equals_single_request_stream() {
    // The batched API is just a parallel schedule of the serial
    // per-request API: same responses in submission order.
    let batch = workload_batches(0xABCD, 1, 4096).pop().unwrap();
    let batched = server_with_workers(4);
    let singles = server_with_workers(4);
    let from_batch = batched.run_batch(&batch);
    let from_singles: Vec<_> = batch.iter().map(|&r| singles.execute(r)).collect();
    assert_eq!(from_batch, from_singles);
    assert_eq!(batched.stats(), singles.stats());
}

/// Everything a batch could change beyond its responses.
fn observables(
    server: &Server,
) -> (dg_serve::ServeStats, Vec<dg_serve::ServeStats>, doppelganger::DoppStats, (usize, usize)) {
    (server.stats(), server.shard_stats(), server.cache_stats(), server.residency())
}

#[test]
fn batches_equal_singles_in_submission_order() {
    // `run_batch` hints each shard's upcoming requests up to three
    // prefetch distances (4 requests each) ahead; sizes straddle that
    // window. An empty batch runs between every two batches.
    const AHEAD: usize = 4;
    let cfg = ServeConfig::small();
    let mut query = SimilarityWorkload::new(WorkloadSpec::tier1().with_seed(11), &cfg);
    let mut mixed = SimilarityWorkload::new(WorkloadSpec::tier1().with_seed(12), &cfg);
    let mut adversarial =
        SimilarityWorkload::new(WorkloadSpec::tier1_adversarial().with_seed(13), &cfg);
    let router = server_with_workers(1);
    let one_shard: Vec<Request> = adversarial
        .batch_mixed(8192, 0.3)
        .into_iter()
        .filter(|r| router.shard_of(r.key()) == 0)
        .collect();
    let streams = [
        ("query", query.batch(1536)),
        ("mixed", mixed.batch_mixed(1536, 0.3)),
        ("adversarial", adversarial.batch_mixed(1536, 0.3)),
        ("one shard", one_shard),
    ];
    for (name, stream) in &streams {
        for size in [1, 3 * AHEAD - 1, 3 * AHEAD + 1, stream.len()] {
            for workers in [1, 2, 4] {
                let batched = server_with_workers(workers);
                let singles = server_with_workers(workers);
                let mut from_batches = Vec::new();
                for chunk in stream.chunks(size) {
                    assert!(batched.run_batch(&[]).is_empty());
                    from_batches.extend(batched.run_batch(chunk));
                }
                let from_singles: Vec<_> = stream.iter().map(|&r| singles.execute(r)).collect();
                let what = format!("{name} stream, batches of {size}, {workers} workers");
                assert_eq!(from_batches, from_singles, "{what}: responses");
                assert_eq!(observables(&batched), observables(&singles), "{what}: state");
                batched.check_invariants();
            }
        }
    }
}
