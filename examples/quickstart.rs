//! Quickstart: build a small rack, send one request-response through each
//! I/O model, and print the latency decomposition the paper's Figure 7 and
//! Table 3 are made of.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use vrio::{net_request_response, HasTestbed, RrOutcome, Testbed, TestbedConfig};
use vrio_hv::{table3_expected, IoModel};
use vrio_sim::{Engine, SimDuration};

/// The simulation's world: the rack, plus the outcome of our one request.
/// The testbed hands each completed flow to its world, named by the tag
/// the flow was issued with.
struct World {
    tb: Testbed,
    outcome: Option<RrOutcome>,
}

impl HasTestbed for World {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, _: &mut Engine<Self>, _tag: u64, o: RrOutcome) {
        self.outcome = Some(o);
    }
}

fn main() {
    println!("vRIO quickstart: one request-response per I/O model\n");
    println!(
        "{:<15} {:>12} {:>8} {:>22}",
        "model", "latency", "events", "interposable?"
    );

    for model in IoModel::ALL {
        // A testbed is a deterministic simulated rack: one VMhost, one
        // load generator, and (for vRIO) a remote IOhost.
        let mut w = World {
            tb: Testbed::new(TestbedConfig::simple(model, 1)),
            outcome: None,
        };
        let mut eng = Engine::new();

        // Issue a single echo transaction against VM 0; its outcome
        // reaches `World::on_rr`.
        net_request_response(
            &mut w,
            &mut eng,
            0,
            Bytes::from_static(b"hello, rack-scale world"),
            23,
            SimDuration::micros(4),
            0,
        );
        eng.run(&mut w);

        let o = w.outcome.expect("request completed");
        assert_eq!(o.response.len(), 23, "payload flowed through real rings");

        // Table 3 accounting falls out of the same run.
        let events = w.tb.counters.sum();
        assert_eq!(events, table3_expected(model).sum());
        println!(
            "{:<15} {:>10.1}us {:>8} {:>22}",
            model.to_string(),
            o.latency.as_micros_f64(),
            events,
            if model.is_interposable() {
                "yes"
            } else {
                "no (SRIOV passthrough)"
            },
        );
    }

    println!(
        "\nvRIO pays ~12us for the extra hop to the IOhost but induces as few\n\
         virtualization events as bare-metal SRIOV+ELI -- while remaining fully\n\
         interposable (the paper's Table 3)."
    );
}
