//! Batched scheme operations fanned across a fixed worker pool.
//!
//! Threading model: every batch call splits its items into contiguous
//! chunks, one per worker, and runs them under [`std::thread::scope`] —
//! no channels, no work stealing, no allocations beyond the result
//! vector. Output order always matches input order.
//!
//! Determinism: randomized operations take a 32-byte **master seed**;
//! item `i` draws from `HashDrbg::for_stream(master, i)` regardless of
//! which worker executes it, so a batch result is bit-identical to the
//! sequential loop over the same seeds — scheduling cannot leak into
//! ciphertexts, and tests can assert exact equality.

use rlwe_core::drbg::HashDrbg;
use rlwe_core::kem::SharedSecret;
use rlwe_core::{Ciphertext, PublicKey, RlweContext, RlweError, SecretKey};

/// Runs `f` over `items`, fanned across at most `workers` OS threads,
/// preserving item order in the result.
///
/// `f` receives the *global* item index (for per-item seed derivation)
/// and the item. With `workers <= 1` or a single item everything runs on
/// the caller's thread.
pub fn fan_out<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    fan_out_with(items, workers, || (), |(), i, t| f(i, t))
}

/// [`fan_out`] with per-worker state: `init` runs once on each worker
/// thread and the resulting state is threaded through every item that
/// worker processes. This is how the batch paths give each worker its own
/// [`PolyScratch`](rlwe_core::PolyScratch) arena — warmed up on the
/// worker's first item, reused (allocation-free) for all the rest.
pub fn fan_out_with<T, S, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|s| {
        for (w, (out, input)) in results
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .enumerate()
        {
            let base = w * chunk;
            let f = &f;
            let init = &init;
            s.spawn(move || {
                let mut state = init();
                for (offset, (slot, item)) in out.iter_mut().zip(input).enumerate() {
                    *slot = Some(f(&mut state, base + offset, item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk slot is filled by its worker"))
        .collect()
}

/// Like [`fan_out_with`], but item `i` additionally receives exclusive
/// mutable access to `out[i]` — the backbone of the `_into` batch paths,
/// where outputs live in caller-owned, reusable storage.
///
/// # Panics
///
/// Panics if `out.len() != items.len()` (the public `_into` wrappers
/// validate this and return an error first).
pub fn fan_out_into<T, O, S, R, I, F>(
    items: &[T],
    out: &mut [O],
    workers: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    O: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T, &mut O) -> R + Sync,
{
    assert_eq!(items.len(), out.len(), "one output slot per item");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let mut state = init();
        return items
            .iter()
            .zip(out.iter_mut())
            .enumerate()
            .map(|(i, (t, slot))| f(&mut state, i, t, slot))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|s| {
        for (w, ((res, input), slots)) in results
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .zip(out.chunks_mut(chunk))
            .enumerate()
        {
            let base = w * chunk;
            let f = &f;
            let init = &init;
            s.spawn(move || {
                let mut state = init();
                for (offset, ((r, item), slot)) in res.iter_mut().zip(input).zip(slots).enumerate()
                {
                    *r = Some(f(&mut state, base + offset, item, slot));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk slot is filled by its worker"))
        .collect()
}

/// Validates that a `_into` batch has exactly one output slot per item.
fn check_slot_count(slots: usize, items: usize) -> Result<(), RlweError> {
    if slots != items {
        return Err(RlweError::Malformed {
            reason: format!("need one output slot per item: {slots} slots for {items} items"),
        });
    }
    Ok(())
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism, capped at 8 (past that, memory
/// bandwidth dominates for these kernel sizes).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Encrypts `msgs` under `pk`, item `i` using coins from
/// `HashDrbg::for_stream(master_seed, i)`.
///
/// Bit-identical to calling [`RlweContext::encrypt`] sequentially with
/// the same per-item DRBGs, for any worker count. Each worker owns one
/// [`PolyScratch`](rlwe_core::PolyScratch), so per-item cost is two output
/// polynomials — use [`encrypt_batch_into`] to eliminate those as well.
pub fn encrypt_batch(
    ctx: &RlweContext,
    pk: &PublicKey,
    msgs: &[impl AsRef<[u8]> + Sync],
    master_seed: &[u8; 32],
    workers: usize,
) -> Vec<Result<Ciphertext, RlweError>> {
    fan_out_with(
        msgs,
        workers,
        || ctx.new_scratch(),
        |scratch, i, msg| {
            let mut rng = HashDrbg::for_stream(master_seed, i as u64);
            ctx.encrypt_with_scratch(pk, msg.as_ref(), &mut rng, scratch)
        },
    )
}

/// Allocation-free batched encryption: ciphertext `i` is written into
/// `out[i]` (start from [`RlweContext::empty_ciphertext`]; after the first
/// batch on the same buffers, workers perform **zero** per-item polynomial
/// allocations). Per-item failures land in the returned vector without
/// poisoning the batch.
///
/// # Errors
///
/// [`RlweError::Malformed`] if `out.len() != msgs.len()` (reported with
/// the two lengths), before any work is done.
pub fn encrypt_batch_into(
    ctx: &RlweContext,
    pk: &PublicKey,
    msgs: &[impl AsRef<[u8]> + Sync],
    master_seed: &[u8; 32],
    workers: usize,
    out: &mut [Ciphertext],
) -> Result<Vec<Result<(), RlweError>>, RlweError> {
    check_slot_count(out.len(), msgs.len())?;
    Ok(fan_out_into(
        msgs,
        out,
        workers,
        || ctx.new_scratch(),
        |scratch, i, msg, ct| {
            let mut rng = HashDrbg::for_stream(master_seed, i as u64);
            ctx.encrypt_into(pk, msg.as_ref(), &mut rng, ct, scratch)
        },
    ))
}

/// Decrypts `cts` under `sk` (deterministic; no seed needed).
pub fn decrypt_batch(
    ctx: &RlweContext,
    sk: &SecretKey,
    cts: &[Ciphertext],
    workers: usize,
) -> Vec<Result<Vec<u8>, RlweError>> {
    fan_out_with(
        cts,
        workers,
        || ctx.new_scratch(),
        |scratch, _, ct| {
            let mut out = Vec::with_capacity(ctx.params().message_bytes());
            // ct-allow(batch errors are per-item structural failures, visible in the result shape)
            ctx.decrypt_into(sk, ct, &mut out, scratch)?;
            Ok(out)
        },
    )
}

/// Allocation-free batched decryption: plaintext `i` is decoded into
/// `out[i]` (cleared and refilled; capacities are reused across batches).
///
/// # Errors
///
/// [`RlweError::Malformed`] if `out.len() != cts.len()`.
pub fn decrypt_batch_into(
    ctx: &RlweContext,
    sk: &SecretKey,
    cts: &[Ciphertext],
    workers: usize,
    out: &mut [Vec<u8>],
) -> Result<Vec<Result<(), RlweError>>, RlweError> {
    check_slot_count(out.len(), cts.len())?;
    Ok(fan_out_into(
        cts,
        out,
        workers,
        || ctx.new_scratch(),
        |scratch, _, ct, msg| ctx.decrypt_into(sk, ct, msg, scratch),
    ))
}

/// Runs `count` encapsulations against `pk`, item `i` drawing its random
/// message and coins from `HashDrbg::for_stream(master_seed, i)`.
pub fn encap_batch(
    ctx: &RlweContext,
    pk: &PublicKey,
    count: usize,
    master_seed: &[u8; 32],
    workers: usize,
) -> Vec<Result<(Ciphertext, SharedSecret), RlweError>> {
    let indices: Vec<usize> = (0..count).collect();
    fan_out_with(
        &indices,
        workers,
        || ctx.new_scratch(),
        |scratch, i, _| {
            let mut rng = HashDrbg::for_stream(master_seed, i as u64);
            let mut ct = ctx.empty_ciphertext();
            // ct-allow(batch errors are per-item structural failures, visible in the result shape)
            let ss = ctx.encapsulate_into(pk, &mut rng, &mut ct, scratch)?;
            Ok((ct, ss))
        },
    )
}

/// Decapsulates `cts` under `sk` (deterministic; no seed needed).
pub fn decap_batch(
    ctx: &RlweContext,
    sk: &SecretKey,
    cts: &[Ciphertext],
    workers: usize,
) -> Vec<Result<SharedSecret, RlweError>> {
    fan_out_with(
        cts,
        workers,
        || ctx.new_scratch(),
        |scratch, _, ct| ctx.decapsulate_with_scratch(sk, ct, scratch),
    )
}

/// Runs `count` CCA-secure (FO-transform) encapsulations against `pk`,
/// item `i` drawing from `HashDrbg::for_stream(master_seed, i)` — the
/// hostile-network sibling of [`encap_batch`].
pub fn encap_cca_batch(
    ctx: &RlweContext,
    pk: &PublicKey,
    count: usize,
    master_seed: &[u8; 32],
    workers: usize,
) -> Vec<Result<(Ciphertext, SharedSecret), RlweError>> {
    let indices: Vec<usize> = (0..count).collect();
    fan_out_with(
        &indices,
        workers,
        || ctx.new_scratch(),
        |scratch, i, _| {
            let mut rng = HashDrbg::for_stream(master_seed, i as u64);
            ctx.encapsulate_cca_with_scratch(pk, &mut rng, scratch)
        },
    )
}

/// CCA-secure (FO-transform) batched decapsulation with implicit
/// rejection: invalid ciphertexts yield pseudorandom keys, never
/// observable errors, through the branch-free
/// [`RlweContext::decapsulate_cca_with_scratch`] path. Combine with a
/// [`SamplerKind::CtCdt`](rlwe_core::SamplerKind::CtCdt) context (see
/// `ContextConfig::constant_time`) for a fully constant-time
/// attacker-facing decapsulation service. The public key is required for
/// the re-encryption check.
pub fn decap_cca_batch(
    ctx: &RlweContext,
    sk: &SecretKey,
    pk: &PublicKey,
    cts: &[Ciphertext],
    workers: usize,
) -> Vec<Result<SharedSecret, RlweError>> {
    fan_out_with(
        cts,
        workers,
        || ctx.new_scratch(),
        |scratch, _, ct| ctx.decapsulate_cca_with_scratch(sk, pk, ct, scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_core::ParamSet;

    fn ctx() -> RlweContext {
        RlweContext::new(ParamSet::P1).unwrap()
    }

    fn keypair(ctx: &RlweContext) -> (PublicKey, SecretKey) {
        let mut rng = HashDrbg::new([1u8; 32]);
        ctx.generate_keypair(&mut rng).unwrap()
    }

    #[test]
    fn fan_out_preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..97).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let out = fan_out(&items, workers, |i, &x| (i as u32, x * 2));
            assert_eq!(out.len(), 97, "workers={workers}");
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u32);
                assert_eq!(*doubled, 2 * i as u32);
            }
        }
    }

    #[test]
    fn fan_out_handles_empty_input() {
        let out: Vec<u32> = fan_out(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn encrypt_batch_is_worker_count_invariant() {
        let ctx = ctx();
        let (pk, _) = keypair(&ctx);
        let msgs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 32]).collect();
        let master = [7u8; 32];
        let serial = encrypt_batch(&ctx, &pk, &msgs, &master, 1);
        for workers in [2, 4, 9] {
            let parallel = encrypt_batch(&ctx, &pk, &msgs, &master, workers);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
        }
    }

    #[test]
    fn batch_round_trip_decrypts() {
        let ctx = ctx();
        let (pk, sk) = keypair(&ctx);
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i.wrapping_mul(17); 32]).collect();
        let cts: Vec<Ciphertext> = encrypt_batch(&ctx, &pk, &msgs, &[3u8; 32], 4)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let back = decrypt_batch(&ctx, &sk, &cts, 4);
        // P1 decryptions fail with ~1% probability per item (parameter
        // property); require at least 14/16 exact round-trips.
        let good = back
            .iter()
            .zip(&msgs)
            .filter(|(got, want)| got.as_ref().unwrap() == *want)
            .count();
        assert!(good >= 14, "only {good}/16 round-tripped");
    }

    #[test]
    fn per_item_errors_do_not_poison_the_batch() {
        let ctx = ctx();
        let (pk, _) = keypair(&ctx);
        // One malformed (wrong-length) message among good ones.
        let msgs: Vec<Vec<u8>> = vec![vec![1u8; 32], vec![2u8; 31], vec![3u8; 32]];
        let out = encrypt_batch(&ctx, &pk, &msgs, &[9u8; 32], 2);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(RlweError::MessageLength { .. })));
        assert!(out[2].is_ok());
    }

    #[test]
    fn encap_batch_agrees_with_decap_batch() {
        let ctx = ctx();
        let (pk, sk) = keypair(&ctx);
        let out = encap_batch(&ctx, &pk, 12, &[5u8; 32], 3);
        let (cts, secrets): (Vec<_>, Vec<_>) = out.into_iter().map(|r| r.unwrap()).unzip();
        let decapped = decap_batch(&ctx, &sk, &cts, 3);
        let agree = decapped
            .iter()
            .zip(&secrets)
            .filter(|(got, want)| got.as_ref().unwrap() == *want)
            .count();
        // KEM failure probability ~1% per item — require near-total agreement.
        assert!(agree >= 10, "only {agree}/12 secrets agreed");
    }

    #[test]
    fn cca_batches_round_trip_and_reject_tampering() {
        let ctx = ctx();
        let (pk, sk) = keypair(&ctx);
        let out = encap_cca_batch(&ctx, &pk, 10, &[11u8; 32], 3);
        let (cts, secrets): (Vec<_>, Vec<_>) = out.into_iter().map(|r| r.unwrap()).unzip();
        let decapped = decap_cca_batch(&ctx, &sk, &pk, &cts, 3);
        let agree = decapped
            .iter()
            .zip(&secrets)
            .filter(|(got, want)| got.as_ref().unwrap() == *want)
            .count();
        // KEM failure probability ~1% per item — near-total agreement.
        assert!(agree >= 8, "only {agree}/10 secrets agreed");
        // Worker count cannot change a bit (same per-item DRBG streams).
        let serial = encap_cca_batch(&ctx, &pk, 10, &[11u8; 32], 1);
        for (a, b) in serial
            .iter()
            .zip(encap_cca_batch(&ctx, &pk, 10, &[11u8; 32], 4))
        {
            let (ct_a, ss_a) = a.as_ref().unwrap();
            let (ct_b, ss_b) = &b.unwrap();
            assert_eq!(ct_a, ct_b);
            assert_eq!(ss_a.as_bytes(), ss_b.as_bytes());
        }
        // A mauled ciphertext decapsulates to an unrelated (implicit
        // rejection) key, not an error.
        let mut wire = cts[0].to_bytes().unwrap();
        wire[30] ^= 1;
        if let Ok(mauled) = Ciphertext::from_bytes(&wire) {
            let rejected = decap_cca_batch(&ctx, &sk, &pk, &[mauled], 1);
            assert_ne!(rejected[0].as_ref().unwrap(), &secrets[0]);
        }
    }

    #[test]
    fn encrypt_batch_into_matches_allocating_batch() {
        let ctx = ctx();
        let (pk, sk) = keypair(&ctx);
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 32]).collect();
        let master = [6u8; 32];
        let allocating = encrypt_batch(&ctx, &pk, &msgs, &master, 3);
        let mut out: Vec<Ciphertext> = (0..msgs.len()).map(|_| ctx.empty_ciphertext()).collect();
        // Run twice on the same buffers: results identical, storage reused.
        for _ in 0..2 {
            let statuses = encrypt_batch_into(&ctx, &pk, &msgs, &master, 3, &mut out).unwrap();
            assert!(statuses.iter().all(|s| s.is_ok()));
            for (a, b) in allocating.iter().zip(&out) {
                assert_eq!(a.as_ref().unwrap(), b);
            }
        }
        let mut plain: Vec<Vec<u8>> = vec![Vec::new(); out.len()];
        let statuses = decrypt_batch_into(&ctx, &sk, &out, 3, &mut plain).unwrap();
        assert!(statuses.iter().all(|s| s.is_ok()));
        let good = plain.iter().zip(&msgs).filter(|(g, w)| g == w).count();
        assert!(good >= 8, "only {good}/10 round-tripped");
    }

    #[test]
    fn batch_into_rejects_mismatched_output_length() {
        let ctx = ctx();
        let (pk, sk) = keypair(&ctx);
        let msgs = [vec![0u8; 32]];
        let mut out: Vec<Ciphertext> = Vec::new();
        assert!(encrypt_batch_into(&ctx, &pk, &msgs, &[1u8; 32], 1, &mut out).is_err());
        let mut plain: Vec<Vec<u8>> = vec![Vec::new(); 2];
        assert!(decrypt_batch_into(&ctx, &sk, &[], 1, &mut plain).is_err());
    }

    #[test]
    fn fan_out_with_initialises_state_per_worker() {
        // Each worker's state counts the items it processed. Workers get
        // contiguous chunks of ceil(n/workers) items, so item i must see
        // the count (i % chunk) + 1: init ran once per worker (a fresh
        // count at every chunk boundary) and the state threaded through
        // every item of that worker's chunk. An init-per-item regression
        // (count always 1) or shared state (count never resetting) fails.
        let items: Vec<u32> = (0..23).collect();
        for workers in [1usize, 2, 5, 23] {
            let seen = fan_out_with(
                &items,
                workers,
                || 0usize,
                |count, _, _| {
                    *count += 1;
                    *count
                },
            );
            let chunk = items.len().div_ceil(workers.min(items.len()));
            for (i, &count) in seen.iter().enumerate() {
                assert_eq!(count, i % chunk + 1, "workers={workers}, item {i}");
            }
        }
    }

    #[test]
    fn different_master_seeds_give_different_ciphertexts() {
        let ctx = ctx();
        let (pk, _) = keypair(&ctx);
        let msgs = [vec![0u8; 32]];
        let a = encrypt_batch(&ctx, &pk, &msgs, &[1u8; 32], 1);
        let b = encrypt_batch(&ctx, &pk, &msgs, &[2u8; 32], 1);
        assert_ne!(a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
    }
}
