//! Engine acceptance tests: session stream integrity and pool
//! amortisation.

use rlwe_core::drbg::HashDrbg;
use rlwe_core::{ParamSet, RlweContext};
use rlwe_engine::{ContextPool, Session, SessionError};
use std::sync::Arc;

/// The acceptance criterion: a multi-frame payload round-trips,
/// and tampering with any frame fails MAC verification.
#[test]
fn session_round_trips_multiframe_payloads_and_rejects_tampering() {
    for set in [ParamSet::P1, ParamSet::P2] {
        let ctx = RlweContext::new(set).unwrap();
        let mut rng = HashDrbg::new([5u8; 32]);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();

        // Handshake with retry on the documented ~1% KEM failure.
        let (client, server) = (0..8u64)
            .find_map(|attempt| {
                let mut hs = HashDrbg::for_stream(&[6u8; 32], attempt);
                let (c, hello) = Session::initiate(&ctx, &pk, &mut hs).unwrap();
                match Session::accept(&ctx, &sk, &hello) {
                    Ok(s) => Some((c, s)),
                    Err(SessionError::HandshakeFailed) => None,
                    Err(e) => panic!("{set:?}: unexpected handshake error {e}"),
                }
            })
            .expect("eight consecutive KEM failures");

        // A payload much larger than one lattice message, split over
        // frames of varying sizes.
        let payload: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let mut tx = client.sender();
        let chunks: Vec<&[u8]> = payload.chunks(977).collect();
        let frames: Vec<Vec<u8>> = chunks.iter().map(|c| tx.seal(c)).collect();

        // Round trip.
        let mut rx = server.receiver();
        let mut reassembled = Vec::new();
        for frame in &frames {
            let (part, used) = rx.open(frame).unwrap();
            assert_eq!(used, frame.len());
            reassembled.extend_from_slice(&part);
        }
        assert_eq!(
            reassembled, payload,
            "{set:?}: payload corrupted in transit"
        );

        // Tampering with any single frame is caught by the MAC (or by a
        // structural check for magic/length bytes).
        let mut rx2 = server.receiver();
        for (i, frame) in frames.iter().enumerate() {
            if i == 3 {
                let mut bad = frame.clone();
                let mid = bad.len() / 2;
                bad[mid] ^= 0x40;
                assert!(
                    rx2.open(&bad).is_err(),
                    "{set:?}: tampered frame {i} was accepted"
                );
                // Original still accepted — rejection did not advance state.
            }
            rx2.open(frame).unwrap();
        }
    }
}

#[test]
fn pool_amortises_context_setup_across_engines_and_threads() {
    let pool = Arc::new(ContextPool::new());
    let first = pool.get(ParamSet::P1).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.get(ParamSet::P1).unwrap())
        })
        .collect();
    for h in handles {
        assert!(Arc::ptr_eq(&first, &h.join().unwrap()));
    }
}
