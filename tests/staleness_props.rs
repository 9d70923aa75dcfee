//! Property tests of the WSP staleness algebra and its enforcement by
//! both the simulator and the real threaded trainer.
//!
//! Written as exhaustive/seeded sweeps rather than `proptest` (the
//! offline build vendors no shrinking framework); the parameter grids
//! cover the same domains the original strategies sampled.

use hetpipe::core::WspParams;

/// The closed-form global staleness bound of Section 5.
#[test]
fn s_global_formula() {
    for nm in 1usize..16 {
        for d in 0usize..8 {
            let w = WspParams::new(nm, d);
            let s_local = nm - 1;
            assert_eq!(w.s_local(), s_local);
            assert_eq!(w.s_global(), (d + 1) * (s_local + 1) + s_local - 1);
        }
    }
}

/// Every minibatch's required wave is far enough in the past that the
/// staleness guarantee `p` sees all updates up to `p - (s_global + 1)`
/// holds, and no further (tightness).
#[test]
fn required_wave_is_exact() {
    for nm in 1usize..12 {
        for d in 0usize..6 {
            let w = WspParams::new(nm, d);
            for p in 1u64..4000 {
                match w.required_wave(p) {
                    None => {
                        // Only the first s_global + 1 minibatches are exempt.
                        assert!(p <= w.s_global() as u64 + 1);
                    }
                    Some(wave) => {
                        // The wave must cover minibatch p - s_global - 1 ...
                        let must_see = p - w.s_global() as u64 - 1;
                        assert!(
                            w.last_of_wave(wave) >= must_see,
                            "wave {wave} ends at {} but must cover {must_see}",
                            w.last_of_wave(wave)
                        );
                        // ... and the previous wave must NOT cover it (tight).
                        if wave > 0 {
                            assert!(w.last_of_wave(wave - 1) < must_see);
                        }
                    }
                }
            }
        }
    }
}

/// Required waves are monotone in `p` and decrease with `D`.
#[test]
fn required_wave_monotone() {
    for nm in 1usize..10 {
        for d in 0usize..5 {
            let w = WspParams::new(nm, d);
            for p in 2u64..2000 {
                let r_prev = w.required_wave(p - 1);
                let r = w.required_wave(p);
                assert!(r_prev.unwrap_or(0) <= r.unwrap_or(u64::MAX).max(r_prev.unwrap_or(0)));
                // Looser D never requires more.
                let looser = WspParams::new(nm, d + 1);
                match (looser.required_wave(p), r) {
                    (Some(a), Some(b)) => assert!(a <= b),
                    (Some(_), None) => panic!("looser D cannot add requirements"),
                    _ => {}
                }
            }
        }
    }
}

/// Wave indexing round-trips.
#[test]
fn wave_indexing_roundtrip() {
    for nm in 1usize..16 {
        let w = WspParams::new(nm, 0);
        for wave in 0u64..1000 {
            let first = w.first_of_wave(wave);
            let last = w.last_of_wave(wave);
            assert_eq!(last - first + 1, nm as u64);
            assert_eq!(w.wave_of(first), wave);
            assert_eq!(w.wave_of(last), wave);
            if first > 1 {
                assert_eq!(w.wave_of(first - 1), wave - 1);
            }
        }
    }
}

/// PipeDream-2BW double buffering against the WSP clock: under 2BW,
/// every minibatch of wave `c` reads the version closed by wave
/// `c − 1` (one shadow buffer — the `extra_weight_versions` cap of 1
/// that replaces HetPipe's per-minibatch `w_p` stashing for 1F1B).
/// That version must be (a) exactly one wave stale — the fixed 2BW
/// staleness — and (b) never older than the WSP start gate
/// ([`WspParams::required_wave`]) demands, for every `(Nm, D)`: the
/// double buffer is a *tightening* of WSP's staleness envelope, so
/// capping the stash cannot admit a run WSP would forbid.
#[test]
fn two_bw_versions_respect_the_wsp_staleness_bound() {
    use hetpipe::schedule::{PipelineSchedule, Schedule};
    for nm in 1usize..12 {
        for d in 0usize..6 {
            let w = WspParams::new(nm, d);
            for p in 1u64..4000 {
                let v = w.two_bw_version(p);
                // (a) Fixed one-wave staleness: wave 0 runs on the
                // initial weights (−1), later waves on the previous
                // wave's version.
                assert_eq!(v, w.wave_of(p) as i64 - 1);
                // (b) At least as fresh as the WSP gate requires.
                if let Some(req) = w.required_wave(p) {
                    assert!(
                        v >= req as i64,
                        "Nm={nm} D={d} mb={p}: 2BW version {v} staler than \
                         the WSP gate's wave {req}"
                    );
                }
            }
        }
    }
    // The memory side of the same scheme: 1F1B pins at most one shadow
    // copy at any stage, depth, or concurrency.
    for k in 1usize..10 {
        for nm in 1usize..12 {
            for stage in 0..k {
                assert!(Schedule::OneFOneB.extra_weight_versions(stage, k, nm) <= 1);
            }
        }
    }
}

/// Clock-distance rule consistency.
#[test]
fn distance_rule() {
    for d in 0usize..10 {
        let w = WspParams::new(4, d);
        for slowest in 0u64..100 {
            for ahead in 0u64..20 {
                let mine = slowest + ahead;
                assert_eq!(w.within_distance(mine, slowest), ahead <= d as u64);
            }
        }
    }
}

/// The threaded trainer must honour the clock-distance bound under
/// every (Nm, D) combination — measured, not assumed.
#[test]
fn trainer_clock_distance_respects_bound() {
    use hetpipe::train::{train, Dataset, Mode, TrainConfig};
    let dataset = Dataset::gaussian_blobs(8, 3, 512, 64, 0.4, 5);
    for (nm, d) in [(1usize, 0usize), (2, 0), (4, 1), (4, 3)] {
        let config = TrainConfig {
            mode: Mode::Wsp { nm, d },
            workers: 3,
            dims: vec![8, 16, 3],
            batch: 16,
            lr: 0.05,
            momentum: 0.0,
            steps_per_worker: 96,
            seed: 11,
            snapshot_every: 0,
        };
        let out = train(&dataset, &config);
        assert!(
            out.max_clock_distance <= d as u64 + 1,
            "Nm={nm} D={d}: observed clock distance {}",
            out.max_clock_distance
        );
    }
}

/// The simulator keeps virtual workers within the distance bound too.
#[test]
fn simulator_clock_distance_respects_bound() {
    use hetpipe::prelude::*;
    let cluster = Cluster::paper_testbed();
    let graph = vgg19(32);
    for d in [0usize, 2] {
        let config = SystemConfig {
            policy: AllocationPolicy::NodePartition,
            placement: Placement::Default,
            staleness_bound: d,
            nm_override: Some(2),
            ..SystemConfig::default()
        };
        let report = HetPipeSystem::build(&cluster, &graph, &config)
            .expect("feasible")
            .run(SimTime::from_secs(30.0));
        let max = report.waves_per_vw.iter().max().copied().unwrap_or(0);
        let min = report.waves_per_vw.iter().min().copied().unwrap_or(0);
        assert!(
            max - min <= d as u64 + 1,
            "D={d}: final clocks {:?}",
            report.waves_per_vw
        );
    }
}
