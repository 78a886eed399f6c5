//! Test worlds shared by the integration tests.

use bytes::Bytes;
use vrio::{blk_request, net_request_response, BlkOutcome, HasTestbed, RrOutcome, Testbed};
use vrio_block::BlockRequest;
use vrio_sim::{Engine, SimDuration};

/// A world around a borrowed testbed that keeps the outcomes it is handed.
pub struct Outcomes<'a> {
    pub tb: &'a mut Testbed,
    pub rr: Option<RrOutcome>,
    pub blk: Option<BlkOutcome>,
}

impl<'a> Outcomes<'a> {
    pub fn new(tb: &'a mut Testbed) -> Self {
        Outcomes {
            tb,
            rr: None,
            blk: None,
        }
    }
}

impl HasTestbed for Outcomes<'_> {
    fn tb(&mut self) -> &mut Testbed {
        self.tb
    }

    fn on_rr(&mut self, _: &mut Engine<Self>, _: u64, o: RrOutcome) {
        self.rr = Some(o);
    }

    fn on_blk(&mut self, _: &mut Engine<Self>, _: u64, o: BlkOutcome) {
        self.blk = Some(o);
    }
}

/// Runs one RR on VM 0 to quiescence, returning its outcome if it
/// completed.
pub fn try_rr(tb: &mut Testbed, payload: &'static [u8], resp_len: usize) -> Option<RrOutcome> {
    let mut w = Outcomes::new(tb);
    let mut eng = Engine::new();
    let req = Bytes::from_static(payload);
    net_request_response(
        &mut w,
        &mut eng,
        0,
        req,
        resp_len,
        SimDuration::micros(4),
        0,
    );
    eng.run(&mut w);
    w.rr
}

/// Runs one block request on VM 0 to quiescence, returning its outcome.
pub fn one_blk(tb: &mut Testbed, req: BlockRequest) -> BlkOutcome {
    let mut w = Outcomes::new(tb);
    let mut eng = Engine::new();
    blk_request(&mut w, &mut eng, 0, req, 0);
    eng.run(&mut w);
    w.blk.expect("block request completed")
}
