//! Integration tests for the behaviour repository's durable-store round-trip
//! and the paper's §5.5 memory-overhead bound, exercised through the full
//! pipeline rather than hand-built entries: a real learning run populates the
//! repository, which must then survive JSON serialization exactly and stay
//! within the "less than 5 KB to record the VM's behavior for the whole day"
//! budget.

use cloudsim::{Cluster, ClusterSeed, EpochEngine, Scheduler, Vm, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig};
use deepdive::metrics::{BehaviorVector, DIMENSIONS};
use deepdive::repository::BehaviorRepository;
use hwsim::MachineSpec;
use proptest::prelude::*;
use workloads::{AppId, ClientEmulator, DataAnalytics, DataServing};

/// Runs a quiet two-tenant cloud long enough for DeepDive to verify and
/// record normal behaviours for both applications.
fn learned_repository() -> BehaviorRepository {
    let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
    cluster
        .place_first_fit(Vm::new(
            VmId(1),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        ))
        .unwrap();
    cluster
        .place_first_fit(Vm::new(
            VmId(2),
            Box::new(DataAnalytics::worker(AppId(3))),
            ClientEmulator::new(40.0, 400.0),
        ))
        .unwrap();
    let mut deepdive = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
    let engine = EpochEngine::serial(ClusterSeed::new(0xDD));
    for _ in 0..80 {
        let reports = engine.step(&mut cluster, |_| 0.7);
        deepdive.process_epoch(&mut cluster, &reports);
    }
    deepdive.repository().clone()
}

#[test]
fn pipeline_populated_repository_round_trips_through_json() {
    let repo = learned_repository();
    assert!(
        !repo.known_apps().is_empty(),
        "the learning run should have recorded at least one application"
    );

    let json = repo.to_json();
    let restored = BehaviorRepository::from_json(&json).expect("repository JSON parses back");

    assert_eq!(restored.known_apps(), repo.known_apps());
    for app in repo.known_apps() {
        assert_eq!(
            restored.behaviors(app),
            repo.behaviors(app),
            "app {app:?} differs"
        );
        assert_eq!(restored.normal_count(app), repo.normal_count(app));
        assert_eq!(restored.footprint_bytes(app), repo.footprint_bytes(app));
    }
    // A second round trip is a fixed point: same text, same contents.
    assert_eq!(
        BehaviorRepository::from_json(&json).unwrap().to_json(),
        json
    );
}

#[test]
fn json_round_trip_preserves_float_payloads_bit_exactly() {
    let mut repo = BehaviorRepository::new();
    // Awkward but finite values: tiny stall rates, long decimals.
    let values: Vec<f64> = (0..DIMENSIONS)
        .map(|i| 0.1234567890123456 * (i as f64 + 1.0) / 3.0)
        .collect();
    repo.record_normal(AppId(5), BehaviorVector::from_vec(&values), 42);
    repo.record_interference(AppId(5), BehaviorVector::from_vec(&values), 43);

    let restored = BehaviorRepository::from_json(&repo.to_json()).unwrap();
    assert_eq!(
        restored.behaviors(AppId(5)),
        repo.behaviors(AppId(5)),
        "float payload changed across the round trip"
    );
}

#[test]
fn malformed_repository_json_is_rejected_not_misparsed() {
    assert!(BehaviorRepository::from_json("").is_err());
    assert!(BehaviorRepository::from_json("not json").is_err());
    assert!(BehaviorRepository::from_json("[1,2,3]").is_err());
    // Valid JSON, wrong shape.
    assert!(BehaviorRepository::from_json("{\"apps\": 3}").is_err());
}

#[test]
fn daily_footprint_per_vm_stays_under_the_5kb_bound() {
    // §5.5: a VM whose behaviour is verified every hour stores 24 entries per
    // day, "less than 5 KB to record the VM's behavior for the whole day".
    let mut repo = BehaviorRepository::new();
    let app = AppId(9);
    for hour in 0..24u64 {
        repo.record_normal(
            app,
            BehaviorVector::from_vec(&[1.0 + hour as f64 * 0.01; DIMENSIONS]),
            hour * 3_600,
        );
    }
    let bytes = repo.footprint_bytes(app);
    assert!(bytes > 0);
    assert!(
        bytes < 5 * 1024,
        "per-VM-day footprint {bytes} B exceeds the §5.5 5 KB budget"
    );

    // The durable JSON encoding inflates the payload (decimal text), but must
    // stay within a small constant factor of the in-memory accounting.
    let json_bytes = repo.to_json().len();
    assert!(
        json_bytes < 4 * 5 * 1024,
        "JSON encoding of one VM-day is unexpectedly large: {json_bytes} B"
    );
}

#[test]
fn repository_after_a_real_day_respects_the_bound_per_application() {
    let repo = learned_repository();
    for app in repo.known_apps() {
        // The run spans well under a day of epochs, so each app's history
        // must sit comfortably inside the daily budget.
        let bytes = repo.footprint_bytes(app);
        assert!(
            bytes < 5 * 1024,
            "app {app:?} stores {bytes} B after a sub-day run (budget: 5 KB/day)"
        );
    }
}

/// The durable-store text, byte for byte, as every commit since the
/// generation counter has written it: field order, string-sorted application
/// ids (`"10"` before `"2"`), floats in shortest round-trip form.
const PINNED: &str = r#"{"apps":{"10":{"entries":[{"behavior":{"values":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]},"interference":false,"epoch":3}],"generation":1},"2":{"entries":[{"behavior":{"values":[1.25,1.25,1.25,1.25,1.25,1.25,1.25,1.25,1.25,1.25]},"interference":true,"epoch":7}],"generation":1}},"capacity_per_app":4}"#;

/// `Ok` payloads must re-serialize to a fixed point; returns whether it loaded.
fn loads_to_a_fixed_point(json: &str) -> bool {
    let Ok(repo) = BehaviorRepository::from_json(json) else {
        return false;
    };
    let text = repo.to_json();
    let again = BehaviorRepository::from_json(&text).expect("own output parses back");
    assert_eq!(again.to_json(), text);
    true
}

#[test]
fn wire_format_is_pinned() {
    let mut repo = BehaviorRepository::with_capacity(4);
    repo.record_normal(AppId(10), BehaviorVector::from_vec(&[0.5; DIMENSIONS]), 3);
    repo.record_interference(AppId(2), BehaviorVector::from_vec(&[1.25; DIMENSIONS]), 7);
    assert_eq!(repo.to_json(), PINNED);
    assert_eq!(
        BehaviorRepository::from_json(PINNED).unwrap().to_json(),
        PINNED
    );
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    // A small explicit stack: the depth bound, not the size of the default
    // stack, is what keeps the recursive parser from overflowing.
    let parse = || {
        for open in ["[", "{\"a\":"] {
            let err = BehaviorRepository::from_json(&open.repeat(10_000)).unwrap_err();
            assert!(
                err.to_string().contains("recursion limit exceeded"),
                "{err}"
            );
        }
        // Nesting within the bound parses, and is then the wrong shape.
        let nested = format!("{}{}", "[".repeat(128), "]".repeat(128));
        let err = BehaviorRepository::from_json(&nested).unwrap_err();
        assert!(err.to_string().contains("expected object"), "{err}");
    };
    let worker = std::thread::Builder::new().stack_size(256 * 1024);
    worker.spawn(parse).unwrap().join().unwrap();
}

#[test]
fn payloads_the_repository_could_not_hold_are_rejected() {
    for (from, to, why) in [
        ("[0.5,", "[1e999,", "number out of range"),
        ("[0.5,", "[-1e999,", "number out of range"),
        // Used to load, after which every record was evicted on arrival.
        (":4}", ":0}", "capacity_per_app must be a positive"),
        ("[0.5,", "[", "behaviour values, found 9"),
        ("[0.5,", "[0.5,0.5,", "behaviour values, found 11"),
        ("\"epoch\":3", "\"epoch\":-3", "expected unsigned integer"),
    ] {
        let payload = PINNED.replacen(from, to, 1);
        assert_ne!(payload, PINNED);
        let err = BehaviorRepository::from_json(&payload).unwrap_err();
        assert!(err.to_string().contains(why), "{payload}: {err}");
    }
}

/// Byte spans of the scalars in `json`: numbers, `true`/`false`, and quoted
/// strings (keys included — swapping those must fail cleanly too).
fn scalar_spans(json: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if bytes[i] == b'"' {
            i += 1 + json[i + 1..].find('"').expect("closing quote") + 1;
        } else if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' {
            while i < bytes.len() && !b",]}".contains(&bytes[i]) {
                i += 1;
            }
        } else {
            i += 1;
            continue;
        }
        spans.push(start..i);
    }
    spans
}

proptest! {
    #[test]
    fn hostile_payloads_never_panic(
        kind in 0u8..4,
        pick in 0usize..1_000_000,
        byte in 0u8..128,
        depth in 0usize..=20_000,
    ) {
        static LEARNED: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let json = LEARNED.get_or_init(|| learned_repository().to_json());
        prop_assert!(json.is_ascii());
        let mutated = match kind {
            0 => json[..pick % (json.len() + 1)].to_string(),
            1 => {
                let mut bytes = json.clone().into_bytes();
                bytes[pick % json.len()] = byte;
                String::from_utf8(bytes).expect("ASCII stays UTF-8")
            }
            2 => {
                let spans = scalar_spans(json);
                let span = spans[pick % spans.len()].clone();
                let token = &json[span.clone()];
                let swapped = match byte % 3 {
                    0 => "null".to_string(),
                    1 => format!("[{token}]"),
                    _ if token.starts_with('"') => token.trim_matches('"').to_string(),
                    _ => format!("\"{token}\""),
                };
                format!("{}{swapped}{}", &json[..span.start], &json[span.end..])
            }
            _ => {
                let (open, close) = if byte % 2 == 0 { ("[", "]") } else { ("{\"a\":", "}") };
                format!("{}{json}{}", open.repeat(depth), close.repeat(depth))
            }
        };
        let loaded = loads_to_a_fixed_point(&mutated);
        prop_assert!(loaded || mutated != *json, "the unmodified payload must load");
    }
}
