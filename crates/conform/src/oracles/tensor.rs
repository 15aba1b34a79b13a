//! MASC tensor-compressor oracles.
//!
//! `tensor-roundtrip` is the harness's most important differential check:
//! the paper's lossless claim means every configuration (Markov on/off,
//! sign inversion, checksums, chunk sizes) must reproduce the pushed value
//! stream bit-exact through all three decode paths — in-memory, serialized (`to_bytes`/`from_bytes`), and the
//! chained newest-first backward decoder. This is the oracle that catches
//! the `WrongStampCandidate` and `VarintLenOffByOne` injected defects.

use crate::geninput;
use crate::oracle::Oracle;
use masc_compress::{CompressedTensor, MascConfig, TensorCompressor};
use masc_sparse::{Pattern, TripletMatrix};
use masc_testkit::Rng;
use std::sync::Arc;

/// Wire header: n, band, steps, flags, (ignored), chunk lo, chunk hi. Byte 4
/// and flag bits 5–6 once chose a worker count and a seed interval; they
/// are ignored so recorded cases replay as-is.
const HEADER_LEN: usize = 7;

/// A structured tensor case decoded from fuzz bytes.
struct TensorCase {
    pattern: Arc<Pattern>,
    config: MascConfig,
    steps: Vec<Vec<f64>>,
}

/// Banded `n × n` pattern with half-bandwidth `band` — the MNA-like shape
/// the stamp predictors are built for.
fn banded_pattern(n: usize, band: usize) -> Arc<Pattern> {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(band)..(i + band + 1).min(n) {
            t.add(i, j, 1.0);
        }
    }
    t.to_csr().pattern().clone()
}

fn decode_case(input: &[u8]) -> Option<TensorCase> {
    let header = input.get(..HEADER_LEN)?;
    let n = 1 + (header[0] as usize) % 10;
    let band = (header[1] as usize) % n.min(3);
    let step_count = (header[2] as usize) % 12;
    let flags = header[3];
    let chunk_size = (usize::from(header[5]) | usize::from(header[6]) << 8) % 65;
    let pattern = banded_pattern(n, band);
    let config = MascConfig {
        markov: flags & 1 != 0,
        sign_invert_diag: flags & 2 != 0,
        checksum: flags & 4 != 0,
        chunk_size,
        ..MascConfig::default()
    };
    // Values come from the remaining payload, cycled so every input
    // length is a valid case (short payloads shrink cleanly).
    let payload = &input[HEADER_LEN..];
    let nnz = pattern.nnz();
    let steps = (0..step_count)
        .map(|s| {
            (0..nnz)
                .map(|k| {
                    let i = s * nnz + k;
                    let mut bits = [0u8; 8];
                    for (b, slot) in bits.iter_mut().enumerate() {
                        *slot = payload
                            .get((i * 8 + b) % payload.len().max(1))
                            .copied()
                            .unwrap_or((i as u8).wrapping_mul(37).wrapping_add(b as u8));
                    }
                    f64::from_le_bytes(bits)
                })
                .collect()
        })
        .collect();
    Some(TensorCase {
        pattern,
        config,
        steps,
    })
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every decode path of the tensor compressor reproduces the pushed
/// stream bit-exact, for every configuration.
pub struct TensorRoundtrip;

impl Oracle for TensorRoundtrip {
    fn name(&self) -> &'static str {
        "tensor-roundtrip"
    }

    fn describe(&self) -> &'static str {
        "MASC tensor lossless through in-memory, serialized, and backward paths"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        let mut out = vec![
            rng.next_u32() as u8,
            rng.next_u32() as u8,
            rng.next_u32() as u8,
            rng.next_u32() as u8,
            rng.next_u32() as u8,
            rng.next_u32() as u8,
            rng.next_u32() as u8,
        ];
        // Smooth-series payload with occasional specials: the regime the
        // predictors are tuned for, plus the edge values they must still
        // carry losslessly.
        let values = rng.range_usize(0, 600);
        let mut v = 1.0f64;
        for _ in 0..values {
            v += rng.range_f64(-1.0, 1.0) * 1e-3;
            let out_v = match rng.below(12) {
                0 => f64::from_bits(rng.next_u64()),
                1 => -v,
                _ => v,
            };
            out.extend_from_slice(&out_v.to_le_bytes());
        }
        out
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(case) = decode_case(input) else {
            return Ok(());
        };
        let mut tc = TensorCompressor::new(case.pattern.clone(), case.config);
        for step in &case.steps {
            tc.push(step);
        }
        let tensor = tc.finish();

        // Path 1: in-memory bulk decode.
        let all = tensor
            .decompress_all()
            .map_err(|e| format!("decompress_all failed: {e:?}"))?;
        if all.len() != case.steps.len() {
            return Err(format!(
                "decompress_all returned {} steps, pushed {}",
                all.len(),
                case.steps.len()
            ));
        }
        for (t, (got, want)) in all.iter().zip(&case.steps).enumerate() {
            if !bits_eq(got, want) {
                return Err(format!("decompress_all mismatch at step {t}"));
            }
        }

        // Path 2: serialize → deserialize → bulk decode.
        let restored = CompressedTensor::from_bytes(&tensor.to_bytes())
            .map_err(|e| format!("from_bytes rejected to_bytes output: {e:?}"))?;
        let all2 = restored
            .decompress_all()
            .map_err(|e| format!("decompress_all after serialization failed: {e:?}"))?;
        if all2.len() != case.steps.len() {
            return Err("serialized tensor lost steps".to_string());
        }
        for (t, (got, want)) in all2.iter().zip(&case.steps).enumerate() {
            if !bits_eq(got, want) {
                return Err(format!("serialized round trip mismatch at step {t}"));
            }
        }

        // Path 3: newest-first backward decode (the adjoint's read order).
        let mut backward = tensor.into_backward();
        let mut expect_step = case.steps.len();
        while let Some((step, values)) = backward
            .next_matrix()
            .map_err(|e| format!("backward decode failed: {e:?}"))?
        {
            if expect_step == 0 {
                return Err("backward decode produced extra steps".to_string());
            }
            expect_step -= 1;
            if step != expect_step {
                return Err(format!(
                    "backward step order: got {step}, want {expect_step}"
                ));
            }
            if !bits_eq(&values, &case.steps[step]) {
                return Err(format!("backward decode mismatch at step {step}"));
            }
        }
        if expect_step != 0 {
            return Err(format!("backward decode stopped {expect_step} steps early"));
        }
        Ok(())
    }

    fn shrink(&self, input: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if input.len() >= HEADER_LEN {
            // Structured shrinks: smaller matrix, fewer steps, plainer
            // config — each keeps the header well-formed.
            for (i, v) in [
                (0usize, 0u8),
                (1, 0),
                (2, 1),
                (2, 2),
                (3, 0),
                (5, 1),
                (6, 0),
            ] {
                if input[i] != v {
                    let mut cand = input.to_vec();
                    cand[i] = v;
                    out.push(cand);
                }
            }
            // Halve the value payload while keeping the header.
            let payload = input.len() - HEADER_LEN;
            if payload >= 16 {
                let mut cand = input[..HEADER_LEN + payload / 2].to_vec();
                cand.truncate(HEADER_LEN + (cand.len() - HEADER_LEN) / 8 * 8);
                out.push(cand);
            }
        }
        out.extend(crate::minimize::byte_candidates(input));
        out
    }
}

/// `CompressedTensor::from_bytes` and the decode paths behind it must
/// survive arbitrary bytes without panicking.
pub struct TensorDecode;

impl Oracle for TensorDecode {
    fn name(&self) -> &'static str {
        "tensor-decode"
    }

    fn describe(&self) -> &'static str {
        "tensor deserialization + decode survive arbitrary bytes"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        let mut data = if rng.below(4) == 0 {
            geninput::structured_bytes(rng, 300)
        } else {
            // Mutate a small valid serialized tensor.
            let pattern = banded_pattern(1 + rng.below(4) as usize, 1);
            let mut tc = TensorCompressor::new(pattern.clone(), MascConfig::default());
            let nnz = pattern.nnz();
            for s in 0..rng.range_usize(0, 5) {
                let step: Vec<f64> = (0..nnz)
                    .map(|k| 1.0 + (s * nnz + k) as f64 * 1e-3)
                    .collect();
                tc.push(&step);
            }
            tc.finish().to_bytes()
        };
        geninput::mutate(rng, &mut data);
        data
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        if let Ok(tensor) = CompressedTensor::from_bytes(input) {
            // Bound the decode work: a forged pattern can legitimately
            // claim a large matrix, and decode cost is blocks × nnz.
            if tensor.len().saturating_mul(tensor.pattern().nnz()) <= 1 << 20 {
                let _ = tensor.decompress_all();
            }
        }
        Ok(())
    }
}
