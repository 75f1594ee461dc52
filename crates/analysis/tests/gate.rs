//! The CI gate: `cargo test -p rlwe-analysis` fails when the workspace
//! has any analysis finding not in the committed baseline — or when the
//! baseline has gone stale (the code improved; ratchet it down).

use rlwe_analysis::findings::{diff_baseline, parse_baseline, Rule};

#[test]
fn workspace_findings_match_the_committed_baseline() {
    let analysis = rlwe_analysis::analyze_workspace();
    let baseline_path = rlwe_analysis::baseline_path();
    let baseline = parse_baseline(
        &std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            panic!(
                "committed baseline {} must exist: {e}",
                baseline_path.display()
            )
        }),
    );
    let diff = diff_baseline(&analysis.findings, &baseline);
    let mut msg = String::new();
    if !diff.new.is_empty() {
        msg.push_str(&format!(
            "\n{} new finding(s) not in analysis-baseline.txt:\n",
            diff.new.len()
        ));
        for f in &diff.new {
            msg.push_str(&format!("  {f}\n"));
        }
        msg.push_str(
            "fix them, or suppress with a reasoned // ct-allow(…) / // panic-allow(…) comment.\n",
        );
    }
    if !diff.stale.is_empty() {
        msg.push_str(&format!(
            "\n{} stale baseline entr(y/ies) — the findings no longer occur. Ratchet the\n\
             baseline down with `cargo run -p rlwe-analysis --bin analyze -- --write-baseline`\n\
             in the same change (never hand-edit entries):\n",
            diff.stale.len()
        ));
        for k in &diff.stale {
            msg.push_str(&format!("  {k}\n"));
        }
    }
    assert!(msg.is_empty(), "{msg}");
}

#[test]
fn coefficient_packing_is_linted_as_secret_handling() {
    // Key serialization packs secret coefficients, so the packer's and
    // parser's inputs are annotated secret and the lint checks their
    // loops directly. The gate above then keeps them branch-free.
    let ws = rlwe_analysis::load_workspace(&rlwe_analysis::workspace_root());
    for (name, param) in [("pack_coeffs_into", "coeffs"), ("unpack_coeffs", "bytes")] {
        let f = ws
            .fns
            .iter()
            .find(|f| {
                f.name == name && ws.files[f.file].rel_path.ends_with("core/src/serialize.rs")
            })
            .unwrap_or_else(|| panic!("{name} is defined in rlwe-core's serialize.rs"));
        assert!(
            f.params.iter().any(|p| p.name == param && p.secret),
            "{name}'s `{param}` must carry `// ct: secret`"
        );
    }
    // The bit-at-a-time packer the word-wise one replaced branches on
    // every coefficient bit, which the annotation exposes.
    let bitwise = "pub fn pack_coeffs(/* ct: secret */ coeffs: &[u32], bits: u32) -> Vec<u8> {\n\
                   let mut out = vec![0u8; 4];\n\
                   for &c in coeffs { for b in 0..bits { if (c >> b) & 1 == 1 { out[0] |= 1; } } }\n\
                   out }";
    let findings = rlwe_analysis::analyze(&rlwe_analysis::load_sources(vec![(
        "rlwe-core".into(),
        "crates/core/src/serialize.rs".into(),
        bitwise.into(),
    )]))
    .findings;
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rlwe_analysis::findings::Rule::CtBranch),
        "{findings:?}"
    );
}

#[test]
fn frame_aead_is_linted_as_secret_handling() {
    // The frame AEAD's key, Poly1305 key and accumulator, and the
    // plaintext `open_in_place` writes are annotated secret, so the lint
    // checks the ChaCha20 block, both flavours of the 8-lane ChaCha20
    // kernel, both Poly1305 block functions (scalar and the 4-lane AVX2
    // kernel with its r-power and accumulator lanes) and the open path
    // directly; the baseline gate keeps them branch-free.
    let ws = rlwe_analysis::load_workspace(&rlwe_analysis::workspace_root());
    for (file, name, params) in [
        ("hash/src/chacha20.rs", "chacha20_block", &["key"][..]),
        ("hash/src/chacha_avx2.rs", "avx2", &["key"][..]),
        ("hash/src/chacha_avx2.rs", "avx512vl", &["key"][..]),
        ("hash/src/poly1305.rs", "poly1305_blocks", &["acc", "r"][..]),
        ("hash/src/poly1305.rs", "absorb", &["acc", "r"][..]),
        ("hash/src/poly1305.rs", "absorb_wide", &["acc", "r"][..]),
        (
            "hash/src/poly1305_avx2.rs",
            "blocks_wide",
            &["acc", "r"][..],
        ),
        ("hash/src/poly1305_avx2.rs", "blocks", &["acc", "r"][..]),
        ("hash/src/poly1305_avx2.rs", "step", &["h", "m", "r"][..]),
        ("hash/src/aead.rs", "open_in_place", &["data"][..]),
    ] {
        let f = ws
            .fns
            .iter()
            .find(|f| f.name == name && ws.files[f.file].rel_path.ends_with(file))
            .unwrap_or_else(|| panic!("{name} is defined in {file}"));
        for param in params {
            assert!(
                f.params.iter().any(|p| p.name == *param && p.secret),
                "{name}'s `{param}` must carry `// ct: secret`"
            );
        }
    }
    for field in ["cipher_key", "r_key", "s_key", "acc", "r_lanes", "r5_lanes"] {
        assert!(
            ws.secret_fields.contains(field),
            "`{field}` must carry `// ct: secret`"
        );
    }
    // A final reduction that branches on the accumulator, the classic
    // variable-time Poly1305 mistake, is what the annotation exposes.
    let branchy = "pub(crate) fn poly1305_blocks(/* ct: secret */ acc: &mut [u64; 3], \
                   /* ct: secret */ r: &[u64; 2], blocks: &[u8], pad_bit: u64) {\n\
                   if acc[2] >= 4 { acc[0] = acc[0].wrapping_add(5); }\n\
                   }";
    let findings = rlwe_analysis::analyze(&rlwe_analysis::load_sources(vec![(
        "rlwe-hash".into(),
        "crates/hash/src/poly1305.rs".into(),
        branchy.into(),
    )]))
    .findings;
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rlwe_analysis::findings::Rule::CtBranch),
        "{findings:?}"
    );
}

#[test]
fn the_servers_static_key_is_tracked_through_serve() {
    // `serve` derives the long-term keypair from the seed's DRBG and
    // hands it to the acceptor through `Shared`; the acceptor passes it
    // on to each worker it spawns, through `spawn_worker`'s
    // `ct: secret` parameter. The ct-allow comments are each a reviewed
    // claim about one such flow; with them stripped the lint must
    // report those flows, so no wrapper can hide the key from the
    // analysis unnoticed.
    let path = rlwe_analysis::workspace_root().join("crates/server/src/server.rs");
    let src = std::fs::read_to_string(&path).expect("server.rs readable");
    let stripped: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("// ct-allow("))
        .map(|l| format!("{l}\n"))
        .collect();
    let findings = rlwe_analysis::analyze(&rlwe_analysis::load_sources(vec![(
        "rlwe-server".into(),
        "crates/server/src/server.rs".into(),
        stripped,
    )]))
    .findings;
    let in_serve: Vec<_> = findings.iter().filter(|f| f.function == "serve").collect();
    assert!(
        in_serve
            .iter()
            .any(|f| f.rule == Rule::CtTry && f.detail.contains("`pk`")),
        "key generation's `?` is not tracked: {in_serve:?}"
    );
    for (caller, callee) in [("serve", "acceptor_loop"), ("spawn_worker", "worker_loop")] {
        assert!(
            findings.iter().any(|f| f.function == caller
                && f.rule == Rule::CtCallSink
                && f.detail.contains(callee)),
            "the key's flow from `{caller}` into `{callee}` is not tracked: {findings:?}"
        );
    }
}

#[test]
fn baseline_has_no_duplicate_or_malformed_entries() {
    let text =
        std::fs::read_to_string(rlwe_analysis::baseline_path()).expect("committed baseline exists");
    let mut seen = std::collections::HashSet::new();
    for line in text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert_eq!(
            line.split('\t').count(),
            4,
            "baseline entries are rule<TAB>file<TAB>function<TAB>detail: {line:?}"
        );
        assert!(seen.insert(line), "duplicate baseline entry: {line:?}");
    }
}
