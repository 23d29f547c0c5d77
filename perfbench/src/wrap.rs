//! Decorators over the program's public traits. Each forwards **every**
//! trait method — defaulted ones included, because a default left in
//! place would silently switch the driver onto another path — and
//! times the calls into [`Meters`].

use std::cell::RefCell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use mwn_chaos::ChaosHarness;
use mwn_cluster::RoutingView;
use mwn_graph::{NodeId, Topology};
use mwn_radio::{ContentionStreams, Delivery, Medium, OccupancyView};
use mwn_sim::{Activity, Corruptible, Fault, Observable, Protocol, WireBeacon};
use rand::rngs::StdRng;

use crate::trace::{Call, Meters, Span};

thread_local! {
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A traced protocol: `Protocol + Observable + Corruptible`.
pub struct TracedProtocol<P> {
    inner: P,
    meters: Arc<Meters>,
}

impl<P> TracedProtocol<P> {
    /// Wraps `inner`, timing into `meters`.
    pub fn new(inner: P, meters: Arc<Meters>) -> Self {
        TracedProtocol { inner, meters }
    }

    fn note_beacon<B: WireBeacon>(&self, node: NodeId, beacon: &B) {
        self.meters.time(Call::Encode, || {
            ENCODE_BUF.with(|buf| {
                let mut buf = buf.borrow_mut();
                buf.clear();
                beacon.encode(&mut buf);
                self.meters.set_beacon_bytes(node.index(), buf.len());
            })
        });
    }
}

impl<P: Protocol> Protocol for TracedProtocol<P>
where
    P::Beacon: WireBeacon,
{
    type State = P::State;
    type Beacon = P::Beacon;

    fn init(&self, node: NodeId, rng: &mut StdRng) -> P::State {
        self.meters
            .time(Call::ProtocolOther, || self.inner.init(node, rng))
    }

    fn beacon(&self, node: NodeId, state: &P::State) -> P::Beacon {
        let b = self
            .meters
            .time(Call::Beacon, || self.inner.beacon(node, state));
        self.note_beacon(node, &b);
        b
    }

    fn beacon_into(&self, node: NodeId, state: &P::State, out: &mut P::Beacon) {
        self.meters
            .time(Call::Beacon, || self.inner.beacon_into(node, state, out));
        self.note_beacon(node, out);
    }

    fn receive(&self, node: NodeId, state: &mut P::State, from: NodeId, b: &P::Beacon, now: u64) {
        self.meters.time(Call::Receive, || {
            self.inner.receive(node, state, from, b, now)
        })
    }

    fn update(&self, node: NodeId, state: &mut P::State, now: u64, rng: &mut StdRng) {
        self.meters
            .time(Call::Update, || self.inner.update(node, state, now, rng))
    }

    fn activity(&self) -> Activity {
        self.inner.activity()
    }

    fn beacon_changed(&self, old: &P::Beacon, new: &P::Beacon) -> bool {
        self.meters
            .time(Call::Beacon, || self.inner.beacon_changed(old, new))
    }

    fn link_down(&self, node: NodeId, state: &mut P::State, peer: NodeId) {
        self.meters.time(Call::ProtocolOther, || {
            self.inner.link_down(node, state, peer)
        })
    }
}

impl<P: Observable> Observable for TracedProtocol<P>
where
    P::Beacon: WireBeacon,
{
    type Output = P::Output;

    fn output(&self, node: NodeId, state: &P::State) -> P::Output {
        self.meters
            .time(Call::Output, || self.inner.output(node, state))
    }
}

impl<P: Corruptible> Corruptible for TracedProtocol<P>
where
    P::Beacon: WireBeacon,
{
    fn corrupt(&self, node: NodeId, state: &mut P::State, rng: &mut StdRng) {
        self.meters
            .time(Call::ProtocolOther, || self.inner.corrupt(node, state, rng))
    }
}

/// A traced medium. Besides timing it charges every sent frame's
/// encoded beacon size to the air and counts frame fates.
pub struct TracedMedium<M> {
    inner: M,
    meters: Arc<Meters>,
}

impl<M> TracedMedium<M> {
    /// Wraps `inner`, timing into `meters`.
    pub fn new(inner: M, meters: Arc<Meters>) -> Self {
        TracedMedium { inner, meters }
    }
}

/// Times one appending delivery call and accounts its frames.
fn delivering(
    meters: &Meters,
    senders: &[NodeId],
    out: &mut Delivery,
    f: impl FnOnce(&mut Delivery),
) {
    let (a0, d0) = (out.attempted, out.delivered);
    meters.time(Call::Deliver, || f(out));
    account(meters, senders, out.attempted - a0, out.delivered - d0);
}

fn account(meters: &Meters, senders: &[NodeId], attempted: usize, delivered: usize) {
    for s in senders {
        meters.send(s.index());
    }
    meters.frames_attempted.fetch_add(attempted as u64, Relaxed);
    meters.frames_delivered.fetch_add(delivered as u64, Relaxed);
}

impl<M: Medium> Medium for TracedMedium<M> {
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        delivering(&self.meters, senders, out, |out| {
            self.inner.deliver_into(topo, senders, rng, out)
        });
    }

    fn deliver(&mut self, topo: &Topology, senders: &[NodeId], rng: &mut StdRng) -> Delivery {
        let d = self
            .meters
            .time(Call::Deliver, || self.inner.deliver(topo, senders, rng));
        account(&self.meters, senders, d.attempted, d.delivered);
        d
    }

    fn deliver_from(
        &mut self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        delivering(&self.meters, &[sender], out, |out| {
            self.inner.deliver_from(topo, sender, rng, out)
        });
    }

    fn independent_fates(&self) -> bool {
        self.inner.independent_fates()
    }

    fn proxyable(&self) -> bool {
        self.inner.proxyable()
    }

    fn proxy_fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        let h0 = heard.len();
        let attempted = self.meters.time(Call::Deliver, || {
            self.inner.proxy_fates(topo, sender, rng, heard)
        });
        account(&self.meters, &[sender], attempted, heard.len() - h0);
        attempted
    }

    fn gated_contention(&self) -> bool {
        self.inner.gated_contention()
    }

    fn deliver_occupied_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        out: &mut Delivery,
    ) {
        delivering(&self.meters, senders, out, |out| {
            self.inner
                .deliver_occupied_into(topo, senders, occupancy, streams, out)
        });
    }

    fn deliver_from_occupied(
        &mut self,
        topo: &Topology,
        sender: NodeId,
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        out: &mut Delivery,
    ) {
        delivering(&self.meters, &[sender], out, |out| {
            self.inner
                .deliver_from_occupied(topo, sender, occupancy, streams, out)
        });
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A traced routing view.
pub struct TracedView<R> {
    inner: R,
    meters: Arc<Meters>,
}

impl<R> TracedView<R> {
    /// Wraps `inner`, timing into `meters`.
    pub fn new(inner: R, meters: Arc<Meters>) -> Self {
        TracedView { inner, meters }
    }
}

impl<R: RoutingView> RoutingView for TracedView<R> {
    fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.meters
            .time(Call::Lookup, || self.inner.route(topo, src, dst))
    }

    fn next_hop(&self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.meters
            .time(Call::Lookup, || self.inner.next_hop(topo, at, dst))
    }
}

/// A traced chaos harness: every harness call is an outer call on the
/// certified cell's span.
pub struct TracedHarness<'a, 'm, H> {
    inner: &'a mut H,
    span: &'a RefCell<Span<'m>>,
}

impl<'a, 'm, H> TracedHarness<'a, 'm, H> {
    /// Wraps `inner`, recording its calls on `span`.
    pub fn new(inner: &'a mut H, span: &'a RefCell<Span<'m>>) -> Self {
        TracedHarness { inner, span }
    }
}

impl<H: ChaosHarness> ChaosHarness for TracedHarness<'_, '_, H> {
    type Output = H::Output;

    fn inject(&mut self, fault: &Fault) {
        let inner = &mut *self.inner;
        self.span
            .borrow_mut()
            .call("inject", || inner.inject(fault));
    }

    fn advance(&mut self, steps: u64) {
        let inner = &mut *self.inner;
        self.span
            .borrow_mut()
            .call("advance", || inner.advance(steps));
    }

    fn outputs(&self) -> Vec<H::Output> {
        self.span
            .borrow_mut()
            .call("outputs", || self.inner.outputs())
    }

    fn set_eager(&mut self, eager: bool) {
        let inner = &mut *self.inner;
        self.span
            .borrow_mut()
            .call("set_eager", || inner.set_eager(eager));
    }

    fn now(&self) -> u64 {
        self.span.borrow_mut().call("now", || self.inner.now())
    }
}
