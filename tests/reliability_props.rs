//! Property tests spanning the transport and block substrates: the §4.5
//! reliability protocol delivers exactly-once completion under arbitrary
//! loss/delay/duplication/reordering patterns, on top of the block gate's
//! one-request-per-block invariant.

use proptest::prelude::*;
use vrio::{Attempt, BlockRetx, ResponseAction, RetxConfig, TimeoutAction};
use vrio_net::{GeConfig, GilbertElliott};
use vrio_sim::{SimDuration, SimRng, SimTime};

/// What the adversarial channel does to each (re)transmission.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Response arrives before the timer.
    Deliver,
    /// Request or response lost: only the timer fires.
    Lose,
    /// Response arrives late: the timer fires first, then the response.
    DeliverLate,
    /// Response is duplicated.
    DeliverTwice,
    /// Responses reorder: the timer fires, the retransmission's response
    /// arrives first, and the original attempt's response straggles in
    /// after the request already completed.
    Reorder,
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    prop_oneof![
        3 => Just(Fate::Deliver),
        2 => Just(Fate::Lose),
        1 => Just(Fate::DeliverLate),
        1 => Just(Fate::DeliverTwice),
        1 => Just(Fate::Reorder),
    ]
}

/// A Gilbert–Elliott channel parameterization drawn from the regime where
/// the Bad state is reachable, escapable, and meaningfully lossier than
/// Good — i.e. a *bursty* channel rather than i.i.d. loss.
fn ge_strategy() -> impl Strategy<Value = GeConfig> {
    (1u64..200, 20u64..500, 0u64..100, 500u64..1000).prop_map(|(p, r, lg, lb)| GeConfig {
        p_good_to_bad: p as f64 / 1000.0,
        p_bad_to_good: r as f64 / 1000.0,
        loss_good: lg as f64 / 1000.0,
        loss_bad: lb as f64 / 1000.0,
    })
}

/// A monotone clock for driving the transport outside the event engine.
struct Clock(SimTime);

impl Clock {
    fn tick(&mut self) -> SimTime {
        self.0 += SimDuration::micros(100);
        self.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the channel does, each request completes exactly once
    /// (as an Accept) or fails exactly once (DeviceError) — never both,
    /// never twice, and stale responses never resurrect a request.
    #[test]
    fn exactly_once_completion_under_adversarial_channel(
        fates in proptest::collection::vec(fate_strategy(), 1..40),
    ) {
        let cfg = RetxConfig {
            initial_timeout: SimDuration::millis(10),
            max_attempts: 4,
            ..RetxConfig::default()
        };
        let mut retx = BlockRetx::new(cfg);
        let mut clock = Clock(SimTime::ZERO);
        let mut outcomes = 0u32;

        for seq in fates.chunks(4) {
            let mut req = retx.send(clock.tick());
            let mut done = false;
            // Play at most 4 channel decisions for this request.
            for &fate in seq {
                prop_assert!(!done);
                match fate {
                    Fate::Deliver => {
                        let wire = req.wire_id();
                        prop_assert_eq!(
                            retx.on_response(&mut req, wire, clock.tick()),
                            ResponseAction::Accept
                        );
                        outcomes += 1;
                        done = true;
                    }
                    Fate::DeliverTwice => {
                        let wire = req.wire_id();
                        prop_assert_eq!(
                            retx.on_response(&mut req, wire, clock.tick()),
                            ResponseAction::Accept
                        );
                        // The duplicate must be filtered.
                        prop_assert_eq!(
                            retx.on_response(&mut req, wire, clock.tick()),
                            ResponseAction::Stale
                        );
                        outcomes += 1;
                        done = true;
                    }
                    Fate::Lose | Fate::DeliverLate | Fate::Reorder => {
                        let old_wire = req.wire_id();
                        match retx.on_timeout(&mut req, clock.tick()) {
                            TimeoutAction::Retransmit => {
                                prop_assert!(req.wire_id() > old_wire, "a fresh wire id");
                            }
                            TimeoutAction::DeviceError => {
                                // A failed request never completes too.
                                prop_assert_eq!(
                                    retx.on_response(&mut req, old_wire, clock.tick()),
                                    ResponseAction::Stale
                                );
                                outcomes += 1;
                                done = true;
                            }
                            TimeoutAction::Stale => prop_assert!(false, "live timer was stale"),
                        }
                        if matches!(fate, Fate::DeliverLate) && !done {
                            // The superseded response straggles in: stale.
                            prop_assert_eq!(
                                retx.on_response(&mut req, old_wire, clock.tick()),
                                ResponseAction::Stale
                            );
                        }
                        if matches!(fate, Fate::Reorder) && !done {
                            // The retransmission's response overtakes the
                            // original attempt's: accept the new, then the
                            // old straggler arrives after completion.
                            let wire = req.wire_id();
                            prop_assert_eq!(
                                retx.on_response(&mut req, wire, clock.tick()),
                                ResponseAction::Accept
                            );
                            prop_assert_eq!(
                                retx.on_response(&mut req, old_wire, clock.tick()),
                                ResponseAction::Stale
                            );
                            outcomes += 1;
                            done = true;
                        }
                    }
                }
                if done {
                    break;
                }
            }
            // If the channel never delivered and attempts remain, drain via
            // timeouts until the protocol settles.
            while !done {
                match retx.on_timeout(&mut req, clock.tick()) {
                    TimeoutAction::Retransmit => {}
                    TimeoutAction::DeviceError => {
                        outcomes += 1;
                        done = true;
                    }
                    TimeoutAction::Stale => prop_assert!(false, "live timer was stale"),
                }
            }
        }

        let requests = fates.chunks(4).count() as u32;
        prop_assert_eq!(outcomes, requests, "exactly one outcome per request");
        prop_assert_eq!(retx.outstanding(), 0);
        prop_assert_eq!(
            retx.stats.completed + retx.stats.device_errors,
            u64::from(requests)
        );
    }

    /// Timeouts always double (up to the configured cap), regardless of
    /// interleaving with other requests.
    #[test]
    fn backoff_doubles_per_request(attempts in 2u32..7, others in 0usize..5) {
        let cfg = RetxConfig {
            initial_timeout: SimDuration::millis(10),
            max_attempts: attempts,
            ..RetxConfig::default()
        };
        let mut retx = BlockRetx::new(cfg);
        let mut clock = Clock(SimTime::ZERO);
        // Interleave unrelated requests to perturb wire-id allocation.
        let mut noise: Vec<Attempt> = (0..others).map(|_| retx.send(clock.tick())).collect();
        let mut req = retx.send(clock.tick());
        let mut expect = 10u64;
        loop {
            prop_assert_eq!(req.timeout(), SimDuration::millis(expect));
            match retx.on_timeout(&mut req, clock.tick()) {
                TimeoutAction::Retransmit => {
                    expect = (expect * 2).min(retx.config().max_rto.as_nanos() / 1_000_000);
                }
                TimeoutAction::DeviceError => break,
                TimeoutAction::Stale => prop_assert!(false),
            }
        }
        prop_assert_eq!(expect, (10 * (1u64 << (attempts - 1))).min(1000));
        // The unrelated requests were untouched by the backoff storm.
        for r in &mut noise {
            prop_assert_eq!(r.timeout(), SimDuration::millis(10));
            let wire = r.wire_id();
            prop_assert_eq!(
                retx.on_response(r, wire, clock.tick()),
                ResponseAction::Accept
            );
        }
    }

    /// Exactly-once completion survives *bursty* loss: instead of i.i.d.
    /// fates, the channel is a Gilbert–Elliott two-state Markov chain, so
    /// losses cluster — consecutive transmissions of the same request tend
    /// to die together, which is precisely the regime that exhausts naive
    /// fixed-retry schemes.
    #[test]
    fn exactly_once_completion_under_bursty_loss(
        ge_cfg in ge_strategy(),
        seed in any::<u64>(),
        requests in 5u64..40,
    ) {
        let ge_cfg = ge_cfg.validated().map_err(|e| {
            TestCaseError::fail(format!("strategy produced invalid config: {e}"))
        })?;
        let mut channel = GilbertElliott::new(ge_cfg);
        let mut rng = SimRng::seed_from(seed);
        let mut retx = BlockRetx::new(RetxConfig {
            initial_timeout: SimDuration::millis(10),
            max_attempts: 6,
            ..RetxConfig::default()
        });
        let mut clock = Clock(SimTime::ZERO);
        let mut outcomes = 0u64;
        let mut losses = 0u64;

        for _ in 0..requests {
            let mut req = retx.send(clock.tick());
            loop {
                if channel.step(&mut rng) {
                    // The channel ate this transmission: only the timer fires.
                    losses += 1;
                    match retx.on_timeout(&mut req, clock.tick()) {
                        TimeoutAction::Retransmit => {}
                        TimeoutAction::DeviceError => {
                            prop_assert!(!req.is_outstanding());
                            outcomes += 1;
                            break;
                        }
                        TimeoutAction::Stale => prop_assert!(false, "live timer was stale"),
                    }
                } else {
                    let wire = req.wire_id();
                    prop_assert_eq!(
                        retx.on_response(&mut req, wire, clock.tick()),
                        ResponseAction::Accept
                    );
                    outcomes += 1;
                    break;
                }
            }
        }

        prop_assert_eq!(outcomes, requests, "exactly one outcome per request");
        prop_assert_eq!(retx.outstanding(), 0);
        prop_assert_eq!(retx.stats.completed + retx.stats.device_errors, requests);
        // Attempt accounting closes: every attempt was either eaten by the
        // channel (and timed out) or was the one that completed its request.
        prop_assert_eq!(
            retx.stats.sent + retx.stats.retransmissions,
            losses + retx.stats.completed
        );
    }
}
