//! Link physics against closed form, driven through [`Network`].
//!
//! Each test wires a source and a sink across one shaped link, collects
//! what the sink and the link saw while the simulation runs (per-packet
//! delivery times, per-millisecond backlog, per-second delivered bytes),
//! and compares the whole series with the value a formula gives, with
//! `assert_eq!`: a serialization time off by one byte time, a departure
//! retired after an arrival in the same microsecond, or a rate step applied
//! to a packet already in service each move some delivery time. The one
//! stochastic case, Poisson arrivals into the link (M/D/1), compares a
//! mean wait with its formula inside a confidence interval.

use std::any::Any;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcabench_netsim::{
    Agent, Ctx, FlowId, LinkConfig, LinkId, Network, NodeId, Packet, RateProfile,
};
use vcabench_simcore::{SimDuration, SimTime};

const FLOW: FlowId = FlowId(1);

/// Sends one `size`-byte packet at each of `at` (ascending).
struct Scheduled {
    dst: NodeId,
    size: usize,
    at: Vec<SimTime>,
    sent: usize,
}

impl Scheduled {
    fn boxed(dst: NodeId, size: usize, at: Vec<SimTime>) -> Box<dyn Agent<()>> {
        Box::new(Scheduled {
            dst,
            size,
            at,
            sent: 0,
        })
    }
}

impl Agent<()> for Scheduled {
    fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer_at(self.at[0], 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, ()>, _pkt: Packet<()>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _timer: u64) {
        ctx.send(FLOW, self.dst, self.size, ());
        self.sent += 1;
        if let Some(&next) = self.at.get(self.sent) {
            ctx.set_timer_at(next, 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records `(packet id, arrival time)` of every packet it receives.
#[derive(Default)]
struct Sink {
    got: Vec<(u64, SimTime)>,
}

impl Agent<()> for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, ()>, pkt: Packet<()>) {
        self.got.push((pkt.id, ctx.now));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `src` → `dst` over one link configured by `cfg`; `src` runs `agent`.
fn one_hop(
    cfg: LinkConfig,
    agent: impl FnOnce(NodeId) -> Box<dyn Agent<()>>,
) -> (Network<()>, NodeId, LinkId) {
    let mut net = Network::new();
    let src = net.add_node();
    let dst = net.add_agent(Box::new(Sink::default()));
    let link = net.add_link(src, dst, cfg);
    net.set_agent(src, agent(dst));
    (net, dst, link)
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// CBR at twice the rate R of a drop-tail link with room for four waiting
/// packets. With S = 1250 B at R = 1 Mbps, service takes T = 10 ms and a
/// packet is offered every T/2. The link is busy from t = 0, so the k-th
/// accepted packet departs at k·T and arrives at k·T + D. Packets 0–8 fill
/// the queue (the 9th offered, at 40 ms, finds three waiting and one in
/// service); from then on each departure at a multiple of T frees room for
/// the packet offered at that instant, and the one offered T/2 later finds
/// the queue full. So packet i is accepted iff i ≤ 8 or i is even, and
/// accepted packet i is the (i + 1)-th for i ≤ 8, the (i/2 + 5)-th after.
#[test]
fn cbr_into_a_drop_tail_link_delivers_drops_and_queues_in_closed_form() {
    const S: usize = 1250;
    const Q: usize = 4 * S;
    const N: u64 = 400;
    let (t, d, gap) = (10, 20, 5); // ms
    let cfg = LinkConfig::mbps(1.0, SimDuration::from_millis(d)).with_queue_bytes(Q);
    let (mut net, dst, link) = one_hop(cfg, |dst| {
        Scheduled::boxed(dst, S, (0..N).map(|i| ms(i * gap)).collect())
    });

    let accepted = |i: u64| i <= 8 || i.is_multiple_of(2);
    let rank = |i: u64| if i <= 8 { i + 1 } else { i / 2 + 5 };
    // Accepted before or at `now`, and departed by `now` (k·T ≤ now).
    let held_at = |now: u64| {
        let offered = (now / gap + 1).min(N);
        let admitted = (0..offered).filter(|&i| accepted(i)).count() as u64;
        admitted - (now / t).min(admitted)
    };

    let admitted = (0..N).filter(|&i| accepted(i)).count() as u64;
    let end = admitted * t + d;
    let mut backlog = Vec::new();
    let mut expected_backlog = Vec::new();
    for now in 0..=end {
        net.run_until(ms(now));
        backlog.push(net.link(link).backlog_bytes());
        expected_backlog.push(held_at(now).saturating_sub(1) as usize * S);
    }
    assert_eq!(backlog, expected_backlog, "backlog, one entry per ms");

    let expected: Vec<(u64, SimTime)> = (0..N)
        .filter(|&i| accepted(i))
        .map(|i| (i, ms(rank(i) * t + d)))
        .collect();
    assert_eq!(
        net.agent::<Sink>(dst).got,
        expected,
        "(packet, delivery time)"
    );

    let stats = &net.link(link).stats;
    let dropped = (9..N).filter(|i| !i.is_multiple_of(2)).count() as u64;
    assert_eq!(stats.total_dropped(), dropped);
    assert_eq!(stats.total_delivered(), N - dropped);

    // Per second on the wire: departure k lands in second k·T / 1 s.
    let mut per_second = vec![0; end.div_ceil(1000) as usize];
    for k in 1..=admitted {
        per_second[(k * t / 1000) as usize] += S as u64;
    }
    let series = net
        .link(link)
        .traces
        .total()
        .binned_bytes(SimDuration::from_secs(1), ms(end));
    assert_eq!(series, per_second, "bytes departed per second");
}

/// A rate step lands while the link is backlogged. Each packet is served at
/// the rate in force when its service starts: at R₁ = 1 Mbps (T₁ = 10 ms)
/// before the step at 25 ms, at R₂ = 0.5 Mbps (T₂ = 20 ms) after, and the
/// packet in service across the step finishes at R₁. Five packets offered
/// at t = 0 therefore depart at 10, 20, 30, 50 and 70 ms. The bytes served
/// by any t track the profile's integral `max_bytes_between(0, t)` within
/// one packet.
#[test]
fn a_rate_step_applies_to_the_next_service_start() {
    const S: usize = 1250;
    let d = SimDuration::from_millis(5);
    let profile = RateProfile::constant_mbps(1.0).step(ms(25), 0.5e6);
    let cfg = LinkConfig::mbps(1.0, d).with_profile(profile.clone());
    let (mut net, dst, link) = one_hop(cfg, |dst| Scheduled::boxed(dst, S, vec![SimTime::ZERO; 5]));

    let mut served = Vec::new();
    for now in 0..=80 {
        net.run_until(ms(now));
        served.push(net.link(link).stats.total_delivered_bytes());
    }
    let departures = [10, 20, 30, 50, 70];
    let expected: Vec<(u64, SimTime)> = (0..5).map(|i| (i, ms(departures[i as usize]))).collect();
    let got: Vec<(u64, SimTime)> = net
        .agent::<Sink>(dst)
        .got
        .iter()
        .map(|&(id, at)| (id, at - d))
        .collect();
    assert_eq!(got, expected, "(packet, departure)");

    let by_formula: Vec<u64> = (0..=80u64)
        .map(|now| departures.iter().filter(|&&at| at <= now).count() as u64 * S as u64)
        .collect();
    assert_eq!(served, by_formula, "bytes served, one entry per ms");
    for (now, &bytes) in served.iter().enumerate() {
        let integral = profile.max_bytes_between(SimTime::ZERO, ms(now as u64));
        assert!(
            (bytes as f64 - integral).abs() <= S as f64,
            "{now} ms: served {bytes} B, the profile allows {integral} B"
        );
    }
}

/// Sends one packet at t = 0 and one at t = T, arming the second send
/// before the first: its timer precedes the first packet's departure in
/// every tie-break that goes by scheduling order.
struct Pair {
    dst: NodeId,
    at: SimTime,
}

impl Agent<()> for Pair {
    fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer_at(self.at, 0);
        ctx.send(FLOW, self.dst, 1500, ());
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, ()>, _pkt: Packet<()>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _timer: u64) {
        ctx.send(FLOW, self.dst, 1500, ());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The tie rule: a departure at t is retired before a packet offered at t.
/// A link with no waiting room (Q = 0) serializes 1500 B at 1 Mbps in
/// T = 12 ms; the second packet is offered at exactly T, so it finds the
/// link idle and is served, not dropped — with and without a recorder.
#[test]
fn a_departure_at_t_frees_the_link_for_a_packet_offered_at_t() {
    for traced in [false, true] {
        let (t, twice_t) = (ms(12), ms(24));
        let d = SimDuration::from_millis(3);
        let cfg = LinkConfig::mbps(1.0, d).with_queue_bytes(0);
        let (mut net, dst, link) = one_hop(cfg, |dst| Box::new(Pair { dst, at: t }));
        let log = traced.then(|| {
            let (tel, log) =
                vcabench_telemetry::Telemetry::with_log(vcabench_telemetry::EventLog::unbounded());
            net.set_telemetry(tel);
            log
        });
        net.run_until(ms(100));
        assert_eq!(net.link(link).stats.total_dropped(), 0, "traced: {traced}");
        assert_eq!(
            net.agent::<Sink>(dst).got,
            vec![(0, t + d), (1, twice_t + d)],
            "traced: {traced}"
        );
        if let Some(log) = log {
            let log = log.borrow();
            let kinds: Vec<(SimTime, &str)> = log
                .events()
                .filter(|e| e.kind.name().starts_with("packet_"))
                .map(|e| (e.at, e.kind.name()))
                .collect();
            let expected = vec![
                (SimTime::ZERO, "packet_enqueue"),
                (t, "packet_dequeue"),
                (t, "packet_enqueue"),
                (twice_t, "packet_dequeue"),
            ];
            assert_eq!(kinds, expected);
        }
    }
}

/// Two-sided 99 % Student t quantile at 19 degrees of freedom.
const T_995_19: f64 = 2.861;

/// M/D/1: Poisson arrivals at rate λ into one constant-rate link whose
/// queue never drops, every packet S bytes, so every service takes the
/// same D = 8S/R. The mean wait before service is ρD / (2(1 − ρ)) at load
/// ρ = λD (Pollaczek–Khinchine with zero service variance). A packet's
/// wait is its delivery time less its send time, D, and the propagation
/// delay. The first packets find a queue that started empty, so they are
/// left out; waits of successive packets are correlated, so the interval
/// is built from 20 batch means of consecutive packets.
#[test]
fn poisson_arrivals_wait_the_md1_mean() {
    const S: usize = 1250;
    const WARMUP: usize = 2_000;
    const BATCHES: usize = 20;
    const N: usize = WARMUP + BATCHES * 2_000;
    let service_us = 10_000.0; // S at 1 Mbps
    let d = SimDuration::from_millis(5);
    for (rho, seed) in [(0.5, 1), (0.8, 2)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_gap_us = service_us / rho;
        let mut clock = 0.0;
        let at: Vec<SimTime> = (0..N)
            .map(|_| {
                clock += -(1.0 - rng.gen::<f64>()).ln() * mean_gap_us;
                SimTime::from_micros(clock.round() as u64)
            })
            .collect();
        let end = *at.last().unwrap() + SimDuration::from_secs(60);
        let cfg = LinkConfig::mbps(1.0, d).with_queue_bytes(N * S);
        let (mut net, dst, link) = one_hop(cfg, |dst| Scheduled::boxed(dst, S, at.clone()));
        net.run_until(end);
        assert_eq!(net.link(link).stats.total_dropped(), 0, "rho {rho}");

        // Packet ids count sends from 0, so packet i was sent at `at[i]`.
        let fixed_us = service_us + d.as_micros() as f64;
        let waits: Vec<f64> = net
            .agent::<Sink>(dst)
            .got
            .iter()
            .map(|&(id, t)| (t.as_micros() - at[id as usize].as_micros()) as f64 - fixed_us)
            .collect();
        assert_eq!(waits.len(), N, "rho {rho}: every packet delivered");
        let means: Vec<f64> = waits[WARMUP..]
            .chunks((N - WARMUP) / BATCHES)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .collect();
        let mean = means.iter().sum::<f64>() / BATCHES as f64;
        let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
        let half_width = T_995_19 * (var / BATCHES as f64).sqrt();
        let formula = rho * service_us / (2.0 * (1.0 - rho));
        assert!(
            (mean - formula).abs() <= half_width,
            "rho {rho}: mean wait {mean:.0} us, M/D/1 gives {formula:.0} us, 99 % CI ±{half_width:.0} us"
        );
    }
}
