//! `ELANIB_BACKEND` must reach every simulated point: a point run
//! under an override is simulated on the named backend, never answered
//! with bits computed for the requested one.
//!
//! Its own test binary, because the job runner reads `ELANIB_BACKEND`
//! on every job and the environment is process-global.

use elanib_microbench::pingpong;
use elanib_mpi::Network;

#[test]
fn backend_override_simulates_the_named_backend() {
    let point = || pingpong(Network::InfiniBand, 8, 20);

    let native = point();
    std::env::set_var("ELANIB_BACKEND", "roce-pfc");
    let overridden = point();
    std::env::remove_var("ELANIB_BACKEND");
    let again = point();

    assert!(
        overridden.latency_us > native.latency_us,
        "RoCE framing must add latency: native {} us, roce-pfc {} us",
        native.latency_us,
        overridden.latency_us
    );
    assert_eq!(
        (again.latency_us.to_bits(), again.bandwidth_mb_s.to_bits()),
        (native.latency_us.to_bits(), native.bandwidth_mb_s.to_bits()),
        "a native rerun must repeat the first run bit for bit"
    );
}
