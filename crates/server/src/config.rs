//! Server configuration: explicit struct, env-driven constructor, and
//! typed validation errors.
//!
//! Every knob has an environment variable so deployments configure the
//! binary without recompiling:
//!
//! | variable | meaning | default |
//! |----------|---------|---------|
//! | `RLWE_SERVER_ADDR` | listen address | `127.0.0.1:7681` |
//! | `RLWE_MAX_CONNS` | live-connection (and worker-thread) ceiling | `1024` |
//! | `RLWE_PARAM_SET` | `P1` or `P2` | `P1` |
//! | `RLWE_READ_TIMEOUT_MS` | deadline for reading one whole request, from its first byte | `5000` |
//! | `RLWE_WRITE_TIMEOUT_MS` | per-write timeout | `5000` |
//! | `RLWE_IDLE_TIMEOUT_MS` | eviction deadline between requests; also how long a parked worker thread lives | `30000` |
//! | `RLWE_DRAIN_TIMEOUT_MS` | per-connection grace during shutdown | `500` |
//! | `RLWE_SERVER_SEED` | 64 hex chars; server keypair seed | time-derived |
//!
//! Invalid values produce a typed [`ConfigError`] naming the variable,
//! the offending value and the constraint — never a panic and never a
//! silent fallback to the default.

use rlwe_core::ParamSet;
use std::net::SocketAddr;
use std::time::Duration;

/// Environment variable names (public so tests and docs stay in sync).
pub mod env_vars {
    /// Listen address.
    pub const ADDR: &str = "RLWE_SERVER_ADDR";
    /// Live-connection ceiling.
    pub const MAX_CONNS: &str = "RLWE_MAX_CONNS";
    /// Parameter set (`P1`/`P2`).
    pub const PARAM_SET: &str = "RLWE_PARAM_SET";
    /// Deadline for reading one whole request, from its first byte (ms).
    pub const READ_TIMEOUT_MS: &str = "RLWE_READ_TIMEOUT_MS";
    /// Write timeout (ms).
    pub const WRITE_TIMEOUT_MS: &str = "RLWE_WRITE_TIMEOUT_MS";
    /// Idle-eviction deadline between requests (ms).
    pub const IDLE_TIMEOUT_MS: &str = "RLWE_IDLE_TIMEOUT_MS";
    /// Per-connection drain grace during graceful shutdown (ms).
    pub const DRAIN_TIMEOUT_MS: &str = "RLWE_DRAIN_TIMEOUT_MS";
    /// 32-byte hex seed for the server keypair.
    pub const SEED: &str = "RLWE_SERVER_SEED";
}

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable (or field) at fault.
    pub var: &'static str,
    /// The offending value as provided.
    pub value: String,
    /// What the constraint was.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Full server configuration. Construct with [`ServerConfig::default`]
/// and override fields, or read the environment with
/// [`ServerConfig::from_env`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound
    /// address is reported by `ServerHandle::local_addr`).
    pub addr: SocketAddr,
    /// Ceiling on simultaneously live connections (≥ 1); one past it
    /// is refused with a `Busy` frame. Each live connection has its own
    /// worker thread, so this also bounds the thread count.
    pub max_conns: usize,
    /// Ring-LWE parameter set served.
    pub param_set: ParamSet,
    /// Deadline for reading one whole request (protocol frame or HTTP
    /// head), counted from its first byte.
    pub read_timeout: Duration,
    /// Timeout for response writes.
    pub write_timeout: Duration,
    /// How long a connection may sit idle between requests before
    /// eviction, and how long a worker thread stays parked for reuse
    /// before it exits.
    pub idle_timeout: Duration,
    /// Grace window per in-flight connection during graceful shutdown:
    /// requests already in the pipe are served, then the connection is
    /// closed once this long passes without a new frame.
    pub drain_timeout: Duration,
    /// Seed for the server keypair.
    pub seed: [u8; 32],
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 7681)),
            max_conns: 1024,
            param_set: ParamSet::P1,
            read_timeout: Duration::from_millis(5000),
            write_timeout: Duration::from_millis(5000),
            idle_timeout: Duration::from_millis(30_000),
            drain_timeout: Duration::from_millis(500),
            seed: time_derived_seed(),
        }
    }
}

impl ServerConfig {
    /// Reads configuration from the process environment. Unset
    /// variables keep their defaults; set-but-invalid variables are
    /// typed errors.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first offending variable.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// Like [`ServerConfig::from_env`] but reading variables through
    /// `lookup` — tests inject maps instead of mutating the (process
    /// global, racy) environment.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first offending variable.
    pub fn from_lookup(
        lookup: impl Fn(&'static str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::default();
        if let Some(v) = lookup(env_vars::ADDR) {
            cfg.addr = v.parse().map_err(|_| ConfigError {
                var: env_vars::ADDR,
                value: v,
                reason: "expected a socket address like 127.0.0.1:7681",
            })?;
        }
        if let Some(v) = lookup(env_vars::MAX_CONNS) {
            cfg.max_conns = parse_nonzero(env_vars::MAX_CONNS, &v)?;
        }
        if let Some(v) = lookup(env_vars::PARAM_SET) {
            cfg.param_set = match v.as_str() {
                "P1" | "p1" => ParamSet::P1,
                "P2" | "p2" => ParamSet::P2,
                _ => {
                    return Err(ConfigError {
                        var: env_vars::PARAM_SET,
                        value: v,
                        reason: "expected P1 or P2",
                    })
                }
            };
        }
        if let Some(v) = lookup(env_vars::READ_TIMEOUT_MS) {
            cfg.read_timeout = parse_timeout(env_vars::READ_TIMEOUT_MS, &v)?;
        }
        if let Some(v) = lookup(env_vars::WRITE_TIMEOUT_MS) {
            cfg.write_timeout = parse_timeout(env_vars::WRITE_TIMEOUT_MS, &v)?;
        }
        if let Some(v) = lookup(env_vars::IDLE_TIMEOUT_MS) {
            cfg.idle_timeout = parse_timeout(env_vars::IDLE_TIMEOUT_MS, &v)?;
        }
        if let Some(v) = lookup(env_vars::DRAIN_TIMEOUT_MS) {
            cfg.drain_timeout = parse_timeout(env_vars::DRAIN_TIMEOUT_MS, &v)?;
        }
        if let Some(v) = lookup(env_vars::SEED) {
            cfg.seed = parse_seed(&v)?;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks cross-field invariants (also re-checks the per-field
    /// bounds so hand-built configs get the same guarantees).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_conns == 0 {
            return Err(ConfigError {
                var: env_vars::MAX_CONNS,
                value: "0".to_string(),
                reason: "must be at least 1",
            });
        }
        let timeouts: [(&'static str, Duration); 4] = [
            (env_vars::READ_TIMEOUT_MS, self.read_timeout),
            (env_vars::WRITE_TIMEOUT_MS, self.write_timeout),
            (env_vars::IDLE_TIMEOUT_MS, self.idle_timeout),
            (env_vars::DRAIN_TIMEOUT_MS, self.drain_timeout),
        ];
        for (var, value) in timeouts {
            if value.is_zero() {
                return Err(ConfigError {
                    var,
                    value: "0".to_string(),
                    reason: "timeout must be positive milliseconds",
                });
            }
        }
        Ok(())
    }
}

fn parse_nonzero(var: &'static str, v: &str) -> Result<usize, ConfigError> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(_) => Err(ConfigError {
            var,
            value: v.to_string(),
            reason: "must be at least 1",
        }),
        Err(_) => Err(ConfigError {
            var,
            value: v.to_string(),
            reason: "expected a positive integer",
        }),
    }
}

fn parse_timeout(var: &'static str, v: &str) -> Result<Duration, ConfigError> {
    match v.trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
        Ok(_) => Err(ConfigError {
            var,
            value: v.to_string(),
            reason: "timeout must be positive milliseconds",
        }),
        Err(_) => Err(ConfigError {
            var,
            value: v.to_string(),
            reason: "expected milliseconds as a positive integer",
        }),
    }
}

fn parse_seed(v: &str) -> Result<[u8; 32], ConfigError> {
    let s = v.trim();
    let err = |reason| ConfigError {
        var: env_vars::SEED,
        value: v.to_string(),
        reason,
    };
    if s.len() != 64 {
        return Err(err("expected exactly 64 hex characters"));
    }
    let mut out = [0u8; 32];
    for (i, byte) in out.iter_mut().enumerate() {
        let hi = hex_nibble(s.as_bytes()[2 * i]);
        let lo = hex_nibble(s.as_bytes()[2 * i + 1]);
        match (hi, lo) {
            (Some(h), Some(l)) => *byte = (h << 4) | l,
            _ => return Err(err("expected exactly 64 hex characters")),
        }
    }
    Ok(out)
}

fn hex_nibble(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A best-effort unpredictable seed for servers that did not configure
/// one: the current wall-clock nanoseconds diffused through
/// splitmix64. Fine for a demo server whose keys live only as long as
/// the process; production deployments should set `RLWE_SERVER_SEED`.
fn time_derived_seed() -> [u8; 32] {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    let mut out = [0u8; 32];
    let mut x = nanos;
    for chunk in out.chunks_exact_mut(8) {
        // splitmix64 step.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServerConfig::default().validate().unwrap();
    }

    #[test]
    fn seed_parsing_accepts_mixed_case_hex() {
        let seed = parse_seed(&("Ab".repeat(32))).unwrap();
        assert_eq!(seed, [0xAB; 32]);
    }

    #[test]
    fn seed_parsing_rejects_wrong_length_and_non_hex() {
        assert!(parse_seed("abcd").is_err());
        let mut s = "a".repeat(64);
        s.replace_range(10..11, "g");
        assert!(parse_seed(&s).is_err());
    }
}
