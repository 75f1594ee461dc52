//! `ServerConfig::from_lookup` coverage: defaults, every variable, and
//! typed errors for invalid values.
//!
//! Tests inject variable maps through `from_lookup` instead of mutating
//! the process environment — `std::env::set_var` is racy across the
//! threaded test harness, and `from_env` is a one-line delegation to
//! the same code path.

use rlwe_core::ParamSet;
use rlwe_server::config::env_vars;
use rlwe_server::{ConfigError, ServerConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Builds a lookup closure over a literal variable map.
fn env(pairs: &[(&'static str, &str)]) -> impl Fn(&'static str) -> Option<String> {
    let map: HashMap<&'static str, String> =
        pairs.iter().map(|(k, v)| (*k, v.to_string())).collect();
    move |var| map.get(var).cloned()
}

fn err_for(pairs: &[(&'static str, &str)]) -> ConfigError {
    ServerConfig::from_lookup(env(pairs)).expect_err("config should be rejected")
}

#[test]
fn empty_environment_yields_the_documented_defaults() {
    let cfg = ServerConfig::from_lookup(|_| None).unwrap();
    assert_eq!(cfg.addr, "127.0.0.1:7681".parse().unwrap());
    assert_eq!(cfg.max_conns, 1024);
    assert_eq!(cfg.param_set, ParamSet::P1);
    assert_eq!(cfg.read_timeout, Duration::from_millis(5000));
    assert_eq!(cfg.write_timeout, Duration::from_millis(5000));
    assert_eq!(cfg.idle_timeout, Duration::from_millis(30_000));
    assert_eq!(cfg.drain_timeout, Duration::from_millis(500));
}

#[test]
fn every_variable_is_read() {
    let seed_hex = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff";
    let cfg = ServerConfig::from_lookup(env(&[
        (env_vars::ADDR, "0.0.0.0:9000"),
        (env_vars::MAX_CONNS, "17"),
        (env_vars::PARAM_SET, "P2"),
        (env_vars::READ_TIMEOUT_MS, "111"),
        (env_vars::WRITE_TIMEOUT_MS, "222"),
        (env_vars::IDLE_TIMEOUT_MS, "333"),
        (env_vars::DRAIN_TIMEOUT_MS, "444"),
        (env_vars::SEED, seed_hex),
    ]))
    .unwrap();
    assert_eq!(cfg.addr, "0.0.0.0:9000".parse().unwrap());
    assert_eq!(cfg.max_conns, 17);
    assert_eq!(cfg.param_set, ParamSet::P2);
    assert_eq!(cfg.read_timeout, Duration::from_millis(111));
    assert_eq!(cfg.write_timeout, Duration::from_millis(222));
    assert_eq!(cfg.idle_timeout, Duration::from_millis(333));
    assert_eq!(cfg.drain_timeout, Duration::from_millis(444));
    assert_eq!(&cfg.seed[..4], &[0x00, 0x11, 0x22, 0x33]);
}

#[test]
fn param_set_accepts_both_cases() {
    for v in ["p1", "P1"] {
        let cfg = ServerConfig::from_lookup(env(&[(env_vars::PARAM_SET, v)])).unwrap();
        assert_eq!(cfg.param_set, ParamSet::P1);
    }
    for v in ["p2", "P2"] {
        let cfg = ServerConfig::from_lookup(env(&[(env_vars::PARAM_SET, v)])).unwrap();
        assert_eq!(cfg.param_set, ParamSet::P2);
    }
}

#[test]
fn invalid_values_are_typed_errors_naming_the_variable() {
    let cases: [(&'static str, &str); 7] = [
        (env_vars::ADDR, "not-an-address"),
        (env_vars::MAX_CONNS, "0"),
        (env_vars::MAX_CONNS, "-5"),
        (env_vars::PARAM_SET, "P3"),
        (env_vars::READ_TIMEOUT_MS, "0"),
        (env_vars::DRAIN_TIMEOUT_MS, "soon"),
        (env_vars::SEED, "deadbeef"),
    ];
    for (var, value) in cases {
        let err = err_for(&[(var, value)]);
        assert_eq!(err.var, var, "error blamed the wrong variable");
        assert_eq!(err.value, value, "error lost the offending value");
        // The Display form names the variable and the constraint — it
        // is the operator-facing diagnostic.
        let msg = err.to_string();
        assert!(msg.contains(var), "{msg:?} does not name {var}");
        assert!(!err.reason.is_empty());
    }
}

#[test]
fn validate_rejects_hand_built_zero_fields() {
    let cfg = ServerConfig {
        max_conns: 0,
        ..ServerConfig::default()
    };
    assert_eq!(cfg.validate().unwrap_err().var, env_vars::MAX_CONNS);

    let cfg = ServerConfig {
        idle_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    assert_eq!(cfg.validate().unwrap_err().var, env_vars::IDLE_TIMEOUT_MS);
}

#[test]
fn from_env_reads_the_real_environment_without_panicking() {
    // The variables are unset in the test environment, so this is the
    // defaults path — the point is that the delegation compiles and
    // runs against the real process environment.
    let cfg = ServerConfig::from_env().unwrap();
    cfg.validate().unwrap();
}
