//! Property-based model of the sandbox child protocol: a killed or
//! wedged worker leaves an arbitrary *prefix* of its NDJSON stream —
//! for any terminal line and any truncation point, `parse_child_line`
//! must reject the torn line (the executor maps that to
//! `CrashKind::ProtocolError`) and must never reconstruct a report
//! that differs from what the child actually produced.

use proptest::prelude::*;
use snake_bench::supervise::executor::{parse_child_line, ChildLine};
use snake_core::MechanismReport;

/// A short lowercase message (the stub proptest has no regex
/// strategies, so build the string from sampled characters).
fn message() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select("abcdefghijklmnopqrstuvwxyz :".chars().collect::<Vec<_>>()),
        1..40,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// A report with arbitrary (finite) metric values — the payload whose
/// bit-exactness the wire must preserve.
fn report() -> impl Strategy<Value = MechanismReport> {
    let name = || prop::sample::select(vec!["snake".to_string(), "baseline".to_string()]);
    let frac = || 0.0f64..1.0;
    (
        (name(), name(), frac(), frac(), frac(), frac()),
        (frac(), frac(), frac(), 0.0f64..100.0, 0u64..1_000_000),
        (0u64..10_000, 0u64..10_000),
    )
        .prop_map(
            |(
                (mechanism, app, ipc, coverage, accuracy, precision),
                (l1, resfail, noc, energy, cycles),
                (p50, p90),
            )| {
                MechanismReport {
                    mechanism,
                    app,
                    ipc,
                    coverage,
                    accuracy,
                    precision,
                    l1_hit_rate: l1,
                    reservation_fail_rate: resfail,
                    noc_utilization: noc,
                    energy_j: energy,
                    cycles,
                    timeliness_p50: p50,
                    timeliness_p90: p90,
                    ..MechanismReport::default()
                }
            },
        )
}

/// The terminal lines a real worker emits, built with the same shapes
/// the wire uses.
fn terminal_line() -> impl Strategy<Value = String> {
    prop_oneof![
        report().prop_map(|r| format!(
            "{{\"t\":\"finished\",\"stop\":\"completed\",\"report\":{}}}",
            r.to_json()
        )),
        (report(), 1u64..1_000_000).prop_map(|(r, b)| format!(
            "{{\"t\":\"finished\",\"stop\":\"budget_exceeded\",\"budget\":{b},\"report\":{}}}",
            r.to_json()
        )),
        (1u64..1_000_000).prop_map(|cycle| format!(
            "{{\"t\":\"suspended\",\"cycle\":{cycle},\"checkpoint\":\"job.ckpt\"}}"
        )),
        Just("{\"t\":\"cancelled\"}".to_string()),
        message().prop_map(|m| format!("{{\"t\":\"failed\",\"message\":\"{m}\"}}")),
        message().prop_map(|m| format!("{{\"t\":\"error\",\"message\":\"{m}\"}}")),
        message().prop_map(|m| format!("{{\"t\":\"unresumable\",\"message\":\"{m}\"}}")),
    ]
}

proptest! {
    /// The full line round-trips; every proper prefix is rejected.
    /// A truncated stream can therefore never be mistaken for a
    /// successful (or differently-successful) run.
    #[test]
    fn truncated_terminal_lines_never_misparse(line in terminal_line(), cut in 0usize..4096) {
        // The untorn line is valid — the model matches the wire.
        let full = parse_child_line(&line).expect("untorn line parses");
        // If it carried a report, the parse is bit-exact.
        if let ChildLine::Finished { output } = &full {
            prop_assert!(line.contains(&output.report.to_json().to_string()));
        }
        // Every proper prefix (any kill point mid-write) is an error.
        let cut = cut % line.len();
        if cut > 0 {
            prop_assert!(
                parse_child_line(&line[..cut]).is_err(),
                "prefix of length {cut} parsed: {:?}",
                &line[..cut]
            );
        }
    }

    /// A torn line glued to the next line (the newline lost in the
    /// kill) is rejected too — two half-messages never merge into one
    /// plausible message.
    #[test]
    fn torn_line_plus_next_line_is_rejected(
        a in terminal_line(),
        b in terminal_line(),
        cut in 1usize..4096,
    ) {
        let cut = 1 + cut % (a.len() - 1);
        let glued = format!("{}{}", &a[..cut], b);
        prop_assert!(
            parse_child_line(&glued).is_err(),
            "glued torn lines parsed: {glued:?}"
        );
    }

    /// Foreign stdout noise (a stray print from the simulator, shell
    /// wrapper chatter) is rejected unless it happens to be the
    /// protocol itself.
    #[test]
    fn arbitrary_noise_is_rejected(
        bytes in prop::collection::vec(0x20u8..0x7b, 0..120),
    ) {
        let noise: String = bytes.into_iter().map(char::from).collect();
        // Anything that parses must at minimum be a JSON object with a
        // known "t" tag — plain words, table rows, and ulimit chatter
        // never are.
        if !noise.trim_start().starts_with('{') {
            prop_assert!(parse_child_line(&noise).is_err());
        }
    }
}

/// The windows and checkpoints before the tear still parse — a torn
/// stream invalidates only the torn line, not the telemetry already
/// delivered.
#[test]
fn lines_before_the_tear_stay_valid() {
    let stream = "{\"t\":\"checkpoint\",\"cycle\":2000,\"bytes\":512}\n\
                  {\"t\":\"checkpoint\",\"cycle\":4000,\"bytes\":514}\n\
                  {\"t\":\"finished\",\"stop\":\"comp";
    let mut lines = stream.lines();
    assert_eq!(
        parse_child_line(lines.next().unwrap()),
        Ok(ChildLine::Checkpoint {
            cycle: 2000,
            bytes: 512
        })
    );
    assert_eq!(
        parse_child_line(lines.next().unwrap()),
        Ok(ChildLine::Checkpoint {
            cycle: 4000,
            bytes: 514
        })
    );
    assert!(parse_child_line(lines.next().unwrap()).is_err());
}
