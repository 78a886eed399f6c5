//! Live migration under vRIO (paper §4.6): the front-end identity `F`
//! stays fixed while the transport `T` switches from its SRIOV VF to a
//! migratable virtio channel, the VM moves, and `T` switches back — with
//! block traffic protected by the retransmission protocol throughout.
//!
//! ```text
//! cargo run --example live_migration
//! ```

use vrio::{
    BlockRetx, ClientFlavor, IoClient, ResponseAction, RetxConfig, TimeoutAction, TransportMode,
};
use vrio_sim::{SimDuration, SimTime};

fn main() {
    println!("vRIO live-migration choreography (paper section 4.6)\n");

    let mut client = IoClient::new(7, ClientFlavor::KvmGuest);
    println!(
        "client {}: F = {} (public), T = {} (known only to the IOhost)",
        client.id(),
        client.front_end_mac(),
        client.transport_mac()
    );
    assert_eq!(client.transport_mode(), TransportMode::Sriov);

    // 1. Migration cannot start while T rides the SRIOV VF — the VF cannot
    //    be decoupled in use.
    let err = client.begin_migration().unwrap_err();
    println!("\n1. attempt on SRIOV fails as expected: {err}");

    // 2. F switches T to the paravirtual channel. The wire traffic is the
    //    same virtio protocol, so connections survive the switch.
    client.set_transport_mode(TransportMode::Virtio);
    println!(
        "2. T switched to virtio: migratable = {}",
        client.transport_mode().migratable()
    );

    // 3. In-flight block requests keep their retransmission protection:
    //    anything lost in the blackout window simply retransmits.
    let mut retx = BlockRetx::new(RetxConfig::default());
    let mut now = SimTime::ZERO;
    let mut req_a = retx.send(now);
    let mut req_b = retx.send(now);
    let (wire_a, wire_b) = (req_a.wire_id(), req_b.wire_id());
    client.begin_migration().unwrap();
    println!(
        "3. migration begins with {} block requests in flight",
        retx.outstanding()
    );

    // Request A's response is lost in the blackout; its timer fires.
    now += SimDuration::millis(10);
    assert_eq!(
        retx.on_timeout(&mut req_a, now),
        TimeoutAction::Retransmit,
        "expected a retransmission"
    );
    // Request B's response arrives late, after the VM landed: still valid.
    now += SimDuration::millis(5);
    assert_eq!(
        retx.on_response(&mut req_b, wire_b, now),
        ResponseAction::Accept
    );

    client.complete_migration(1);
    println!(
        "4. VM now on VMhost {}; retransmitted request completes under its new id",
        client.vmhost()
    );
    now += SimDuration::millis(1);
    let new_wire_a = req_a.wire_id();
    assert_eq!(
        retx.on_response(&mut req_a, new_wire_a, now),
        ResponseAction::Accept
    );
    // The original (pre-migration) response for A would now be stale.
    assert_eq!(
        retx.on_response(&mut req_a, wire_a, now),
        ResponseAction::Stale
    );

    // 5. Back to the fast path.
    client.set_transport_mode(TransportMode::Sriov);
    println!(
        "5. T back on SRIOV; {} migration(s) completed, no request lost \
         (sent {}, completed {}, retransmitted {})",
        client.migrations(),
        retx.stats.sent,
        retx.stats.completed,
        retx.stats.retransmissions,
    );
    assert_eq!(retx.stats.completed, 2);
    assert_eq!(retx.stats.device_errors, 0);
}
