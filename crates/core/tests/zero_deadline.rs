//! A durable run whose wall-clock budget is already spent.
//!
//! This test lives in its own binary, and so in its own process, because
//! `RunBudget::arm_kernels` arms the process-global kernel deadline
//! (`ssn_numeric::cancel`). Armed at zero beside the crate's unit tests, it
//! cancels whichever MNA transient happens to run at the same time.

use ssn_core::durable::{
    run_chunked_durable, ByteReader, ByteWriter, ChunkOutcome, DurableOptions, ParamDigest,
    RunBudget, RunSpec,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::SsnError;
use std::time::Duration;

fn encode_chunk(v: &Vec<f64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(v.len());
    for &x in v {
        w.put_f64(x);
    }
    w.into_vec()
}

fn decode_chunk(r: &mut ByteReader<'_>) -> Result<Vec<f64>, SsnError> {
    let n = r.take_usize()?;
    (0..n).map(|_| r.take_f64()).collect()
}

#[test]
fn zero_deadline_skips_everything_without_hanging() {
    let spec = RunSpec {
        kind: "toy",
        seed: 11,
        params_hash: ParamDigest::new("toy").push_u64(6).finish(),
        n_items: 100,
        chunk_size: 16,
    };
    let opts = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::with_deadline(Duration::ZERO),
    };
    let run = run_chunked_durable(
        &spec,
        &ExecPolicy::with_threads(2),
        &opts,
        encode_chunk,
        decode_chunk,
        |_, range| Ok(range.map(|i| i as f64).collect()),
    )
    .unwrap();
    assert!(run.deadline_hit);
    assert!(run
        .chunks
        .iter()
        .all(|o| matches!(o, ChunkOutcome::DeadlineSkipped)));
}
