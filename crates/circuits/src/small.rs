//! Small ITC'99-*style* benchmark circuits.
//!
//! These reproduce the *interface shape* (input/output/flip-flop counts)
//! of the smaller ITC'99 RT-level benchmarks and their general character
//! (serial FSMs, arbiters, counters-with-protocol), but are re-designed
//! from scratch — the original VHDL is not used. They exist to give the
//! fault-grading pipeline a spread of circuit sizes below the 215-FF
//! Viper, and to keep gate-level emulation cross-checks fast.

use seugrade_netlist::{GateKind, Netlist};
use seugrade_rtl::{RtlBuilder, Word};

/// b01-style: serial comparator FSM.
/// 2 inputs (`line1`, `line2`), 2 outputs (`outp`, `overflw`), 5 flip-flops.
#[must_use]
pub fn b01_style() -> Netlist {
    let mut r = RtlBuilder::new("b01s");
    let line1 = r.input_bit("line1");
    let line2 = r.input_bit("line2");
    // 3-bit state + 2 output registers = 5 FFs.
    let st = r.register("st", 3, 0);
    let outp = r.register_bit("outp", false);
    let overflw = r.register_bit("overflw", false);

    // Serial add of the two lines with state as running context:
    // next state = state + line1 + line2 (mod 8); outp = parity of state,
    // overflow pulse when the counter wraps.
    let l1w = r.zext(&Word::from(line1), 3);
    let l2w = r.zext(&Word::from(line2), 3);
    let (s1, c1) = r.add(&st.q(), &l1w);
    let (s2, c2) = r.add(&s1, &l2w);
    let wrap = r.bit_builder().or2(c1, c2);
    r.connect(&st, &s2);
    let parity = r.reduce_xor(&st.q());
    r.connect(&outp, &Word::from(parity));
    r.connect(&overflw, &Word::from(wrap));

    r.output_bit("outp", outp.q().bit(0));
    r.output_bit("overflw", overflw.q().bit(0));
    r.finish().expect("b01s is valid")
}

/// b02-style: serial BCD-like recognizer.
/// 1 input (`linea`), 1 output (`u`), 4 flip-flops.
#[must_use]
pub fn b02_style() -> Netlist {
    let mut r = RtlBuilder::new("b02s");
    let linea = r.input_bit("linea");
    let st = r.register("st", 3, 0);
    let u = r.register_bit("u", false);

    // Shift the serial bit through a 3-bit window; recognize pattern 101.
    let q = st.q();
    let next = Word::from_bits(vec![linea, q.bit(0), q.bit(1)]);
    r.connect(&st, &next);
    let n1 = r.bit_builder().not(q.bit(1));
    let hit = {
        let b = r.bit_builder();
        b.gate(GateKind::And, &[q.bit(0), n1, q.bit(2)])
    };
    r.connect(&u, &Word::from(hit));
    r.output_bit("u", u.q().bit(0));
    r.finish().expect("b02s is valid")
}

/// b03-style: 4-request round-robin-ish arbiter.
/// 4 inputs, 4 outputs, 30 flip-flops.
#[must_use]
pub fn b03_style() -> Netlist {
    let mut r = RtlBuilder::new("b03s");
    let reqs: Vec<_> = (0..4).map(|i| r.input_bit(format!("req{i}"))).collect();
    // 4 request latches + 4 grant registers + 2-bit rotate pointer +
    // 4x4-bit per-client credit counters + 4-bit history = 30 FFs.
    let latched = r.register("lat", 4, 0);
    let grants = r.register("grant", 4, 0);
    let ptr = r.register("ptr", 2, 0);
    let credits: Vec<_> = (0..4).map(|i| r.register(&format!("cr{i}"), 4, 0xF)).collect();
    let hist = r.register("hist", 4, 0);

    // Latch requests.
    let req_word = Word::from_bits(reqs.clone());
    let lat_or = r.or(&latched.q(), &req_word);
    // Clear a latched request when granted.
    let ngrant = r.not(&grants.q());
    let lat_next = r.and(&lat_or, &ngrant);
    r.connect(&latched, &lat_next);

    // Priority pointer rotates every cycle.
    let (pnext, _) = r.inc(&ptr.q());
    r.connect(&ptr, &pnext);

    // Grant the first pending request at or after the pointer with
    // non-zero credit (simple rotate-priority network).
    let ptr_hot = r.decode(&ptr.q());
    let mut grant_bits = Vec::with_capacity(4);
    for i in 0..4 {
        // client i is granted if latched[i] & credit[i]!=0 and it wins
        // priority: pointer == i, or pointer == i-1 and client i-1 idle...
        // Simplified rotate priority: weight = (i - ptr) mod 4; grant the
        // minimal-weight pending client. Elaborate as: grant[i] = pending[i]
        // & NOT (any pending with smaller weight). Build with muxes over
        // ptr_hot.
        let nz = r.reduce_or(&credits[i].q());
        let pend = r.bit_builder().and2(latched.q().bit(i), nz);
        grant_bits.push(pend);
        let _ = &ptr_hot;
    }
    // Resolve priority: for each rotation p, mask lower-priority pendings.
    let mut resolved = Vec::with_capacity(4);
    for i in 0..4 {
        let mut terms = Vec::new();
        for (p, &hot) in ptr_hot.iter().enumerate() {
            // under rotation p, client order is p, p+1, p+2, p+3.
            let my_rank = (4 + i - p) % 4;
            let mut win = grant_bits[i];
            for j in 0..4 {
                if (4 + j - p) % 4 < my_rank {
                    let nj = r.bit_builder().not(grant_bits[j]);
                    win = r.bit_builder().and2(win, nj);
                }
            }
            let term = r.bit_builder().and2(hot, win);
            terms.push(term);
        }
        resolved.push(r.bit_builder().gate(GateKind::Or, &terms));
    }
    let grant_word = Word::from_bits(resolved.clone());
    r.connect(&grants, &grant_word);

    // Credits decrement on grant, reload at zero.
    for (i, cr) in credits.iter().enumerate() {
        let one = r.constant_word(4, 1);
        let (dec, _) = r.sub(&cr.q(), &one);
        let zero = r.is_zero(&cr.q());
        let reload = r.constant_word(4, 0xF);
        let next = r.mux_word(zero, &dec, &reload);
        r.connect_enabled(cr, resolved[i], &next);
    }
    // History remembers last grant vector.
    r.connect(&hist, &grants.q());

    for i in 0..4 {
        r.output_bit(format!("gnt{i}"), grants.q().bit(i));
    }
    r.finish().expect("b03s is valid")
}

/// b06-style: interrupt controller.
/// 2 inputs, 6 outputs, 9 flip-flops.
#[must_use]
pub fn b06_style() -> Netlist {
    let mut r = RtlBuilder::new("b06s");
    let cont_eql = r.input_bit("cont_eql");
    let cpt_dbl = r.input_bit("cpt_dbl");
    let st = r.register("st", 3, 0);
    let cc_mux = r.register("ccm", 2, 1);
    let enable = r.register_bit("en", false);
    let ackout = r.register_bit("ack", false);
    let out_r = r.register("outr", 2, 0);

    // FSM: idle -> armed -> fire -> cooldown, driven by the two inputs.
    let q = st.q();
    let is0 = r.eq_const(&q, 0);
    let is1 = r.eq_const(&q, 1);
    let is2 = r.eq_const(&q, 2);
    let is3 = r.eq_const(&q, 3);
    let go1 = r.bit_builder().and2(is0, cont_eql);
    let go2 = r.bit_builder().and2(is1, cpt_dbl);
    let back = {
        let b = r.bit_builder();
        let n = b.not(cont_eql);
        b.and2(is1, n)
    };
    let c0 = r.constant_word(3, 0);
    let c1 = r.constant_word(3, 1);
    let c2 = r.constant_word(3, 2);
    let c3 = r.constant_word(3, 3);
    // next = mux cascade
    let mut next = q.clone();
    next = r.mux_word(go1, &next, &c1);
    next = r.mux_word(go2, &next, &c2);
    next = r.mux_word(back, &next, &c0);
    next = r.mux_word(is2, &next, &c3);
    next = r.mux_word(is3, &next, &c0);
    r.connect(&st, &next);

    let fire = is2;
    r.connect(&enable, &Word::from(fire));
    r.connect(&ackout, &Word::from(go2));
    let (ccn, _) = r.inc(&cc_mux.q());
    r.connect_enabled(&cc_mux, fire, &ccn);
    let o0 = r.bit_builder().xor2(fire, cc_mux.q().bit(0));
    let o1 = r.bit_builder().or2(go1, cc_mux.q().bit(1));
    r.connect(&out_r, &Word::from_bits(vec![o0, o1]));

    r.output_bit("cc_mux0", cc_mux.q().bit(0));
    r.output_bit("cc_mux1", cc_mux.q().bit(1));
    r.output_bit("uscite0", out_r.q().bit(0));
    r.output_bit("uscite1", out_r.q().bit(1));
    r.output_bit("enable_count", enable.q().bit(0));
    r.output_bit("ackout", ackout.q().bit(0));
    r.finish().expect("b06s is valid")
}

/// b09-style: serial-to-serial converter.
/// 1 input, 1 output, 28 flip-flops.
#[must_use]
pub fn b09_style() -> Netlist {
    let mut r = RtlBuilder::new("b09s");
    let x = r.input_bit("x");
    // 8-bit input shift reg + 8-bit output shift reg + 8-bit compare
    // register + 3-bit bit counter + 1 output latch = 28 FFs.
    let inreg = r.register("in", 8, 0);
    let outreg = r.register("out", 8, 0xA5);
    let cmp = r.register("cmp", 8, 0x5A);
    let cnt = r.register("cnt", 3, 0);
    let d_out = r.register_bit("d", false);

    // Shift input bit in.
    let iq = inreg.q();
    let in_next = Word::from_bits(
        std::iter::once(x)
            .chain(iq.bits()[..7].iter().copied())
            .collect(),
    );
    r.connect(&inreg, &in_next);

    let (cnt_next, _) = r.inc(&cnt.q());
    r.connect(&cnt, &cnt_next);
    let full = r.eq_const(&cnt.q(), 7);

    // On full: compare input register to cmp; if equal, reload out shift
    // register from cmp, else from input; cmp accumulates xor history.
    let equal = r.eq(&inreg.q(), &cmp.q());
    let reload = r.mux_word(equal, &inreg.q(), &cmp.q());
    let oq = outreg.q();
    let shifted = Word::from_bits(
        oq.bits()[1..]
            .iter()
            .copied()
            .chain(std::iter::once(oq.bit(0)))
            .collect(),
    );
    let out_next = r.mux_word(full, &shifted, &reload);
    r.connect(&outreg, &out_next);

    let cx = r.xor(&cmp.q(), &inreg.q());
    r.connect_enabled(&cmp, full, &cx);

    r.connect(&d_out, &Word::from(oq.bit(0)));
    r.output_bit("d", d_out.q().bit(0));
    r.finish().expect("b09s is valid")
}

/// b13-style: weather-station interface.
/// 10 inputs, 10 outputs, 53 flip-flops.
#[must_use]
pub fn b13_style() -> Netlist {
    let mut r = RtlBuilder::new("b13s");
    let data_in = r.input_word("data_in", 8);
    let eoc = r.input_bit("eoc");
    let dsr = r.input_bit("dsr");

    // 8-bit data latch + 8-bit shift-out + 8-bit checksum + 10-bit timer
    // + 4-bit state one-hot + 8-bit mux reg + 4-bit bit counter +
    // out regs (canale 4? keep: 1 soc + 1 load + 1 tx) = 53.
    let latch = r.register("latch", 8, 0);
    let shout = r.register("shout", 8, 0);
    let csum = r.register("csum", 8, 0);
    let timer = r.register("timer", 10, 0);
    let st = r.register("st", 4, 1);
    let muxr = r.register("muxr", 8, 0);
    let bitcnt = r.register("bitcnt", 4, 0);
    let soc = r.register_bit("soc", false);
    let load_r = r.register_bit("load", false);
    let tx = r.register_bit("tx", false);

    let s0 = st.q().bit(0);
    let s1 = st.q().bit(1);
    let s2 = st.q().bit(2);
    let s3 = st.q().bit(3);

    // Timer free-runs; the low 5 bits saturating kicks the FSM from idle
    // every 32 cycles (a full 10-bit rollover would be slower than the
    // test benches used here).
    let (tnext, _) = r.inc(&timer.q());
    r.connect(&timer, &tnext);
    let low5 = timer.q().slice(0, 5);
    let trip = r.eq_const(&low5, 0x1F);

    // FSM one-hot: idle -> sample (wait eoc) -> shift (8 bits) -> done.
    let go_sample = r.bit_builder().and2(s0, trip);
    let sampled = r.bit_builder().and2(s1, eoc);
    let bits_done = r.eq_const(&bitcnt.q(), 8);
    let shift_end = r.bit_builder().and2(s2, bits_done);
    let done_back = r.bit_builder().and2(s3, dsr);
    let stay0 = {
        let b = r.bit_builder();
        let n = b.not(trip);
        b.and2(s0, n)
    };
    let stay1 = {
        let b = r.bit_builder();
        let n = b.not(eoc);
        b.and2(s1, n)
    };
    let stay2 = {
        let b = r.bit_builder();
        let n = b.not(bits_done);
        b.and2(s2, n)
    };
    let stay3 = {
        let b = r.bit_builder();
        let n = b.not(dsr);
        b.and2(s3, n)
    };
    let n0 = r.bit_builder().or2(stay0, done_back);
    let n1 = r.bit_builder().or2(stay1, go_sample);
    let n2 = r.bit_builder().or2(stay2, sampled);
    let n3 = r.bit_builder().or2(stay3, shift_end);
    r.connect(&st, &Word::from_bits(vec![n0, n1, n2, n3]));

    // Latch data on sample; checksum accumulates.
    r.connect_enabled(&latch, sampled, &data_in);
    let cs = r.xor(&csum.q(), &data_in);
    r.connect_enabled(&csum, sampled, &cs);
    r.connect_enabled(&muxr, sampled, &data_in);

    // Shift out during s2.
    let sq = shout.q();
    let shifted = Word::from_bits(
        sq.bits()[1..]
            .iter()
            .copied()
            .chain(std::iter::once(r.constant(false)))
            .collect(),
    );
    let reload = r.mux_word(sampled, &shifted, &latch.q());
    let sh_en = r.bit_builder().or2(s2, sampled);
    r.connect_enabled(&shout, sh_en, &reload);
    let (bc_next, _) = r.inc(&bitcnt.q());
    let zero4 = r.constant_word(4, 0);
    let bc_val = r.mux_word(sampled, &bc_next, &zero4);
    let bc_en = r.bit_builder().or2(s2, sampled);
    r.connect_enabled(&bitcnt, bc_en, &bc_val);

    r.connect(&soc, &Word::from(go_sample));
    r.connect(&load_r, &Word::from(sampled));
    r.connect(&tx, &Word::from(sq.bit(0)));

    r.output_bit("soc", soc.q().bit(0));
    r.output_bit("load_dato", load_r.q().bit(0));
    r.output_bit("tx", tx.q().bit(0));
    r.output_bit("canale0", muxr.q().bit(0));
    r.output_bit("canale1", muxr.q().bit(1));
    r.output_bit("canale2", muxr.q().bit(2));
    r.output_bit("canale3", muxr.q().bit(3));
    r.output_bit("csum0", csum.q().bit(0));
    r.output_bit("csum1", csum.q().bit(1));
    r.output_bit("mux_en", s2);
    r.finish().expect("b13s is valid")
}

#[cfg(test)]
mod tests {
    use seugrade_sim::{CompiledSim, EventSim, Testbench};

    use super::*;

    #[test]
    fn interface_shapes() {
        let cases: [(Netlist, usize, usize, usize); 5] = [
            (b01_style(), 2, 2, 5),
            (b02_style(), 1, 1, 4),
            (b03_style(), 4, 4, 30),
            (b06_style(), 2, 6, 9),
            (b09_style(), 1, 1, 28),
        ];
        for (n, inputs, outputs, ffs) in cases {
            assert_eq!(n.num_inputs(), inputs, "{} inputs", n.name());
            assert_eq!(n.num_outputs(), outputs, "{} outputs", n.name());
            assert_eq!(n.num_ffs(), ffs, "{} ffs", n.name());
        }
        let b13 = b13_style();
        assert_eq!(b13.num_inputs(), 10);
        assert_eq!(b13.num_outputs(), 10);
        assert_eq!(b13.num_ffs(), 53);
    }

    #[test]
    fn circuits_have_output_activity() {
        for n in [b01_style(), b02_style(), b03_style(), b06_style(), b09_style(), b13_style()] {
            let sim = CompiledSim::new(&n);
            let tb = Testbench::random(n.num_inputs(), 200, 42);
            let trace = sim.run_golden(&tb);
            let changes = (1..trace.end())
                .filter(|&t| trace.output_at(t) != trace.output_at(t - 1))
                .count();
            assert!(changes > 3, "{} is output-dead ({changes} changes)", n.name());
        }
    }

    #[test]
    fn engines_agree_on_all_small_circuits() {
        for n in [b01_style(), b02_style(), b03_style(), b06_style(), b09_style(), b13_style()] {
            let tb = Testbench::random(n.num_inputs(), 60, 7);
            let fast = CompiledSim::new(&n).run_golden(&tb);
            let slow = EventSim::new(&n).run_golden(&tb);
            assert_eq!(fast, slow, "{} engine divergence", n.name());
        }
    }

    #[test]
    fn b02_recognizes_101() {
        let n = b02_style();
        let sim = CompiledSim::new(&n);
        // Feed 1,0,1 then observe u two cycles later (window + out reg).
        let seq = [true, false, true, false, false, false];
        let tb = Testbench::new(seq.iter().map(|&b| vec![b]).collect());
        let trace = sim.run_golden(&tb);
        let fired = (0..trace.end()).any(|t| trace.output_at(t)[0]);
        assert!(fired, "pattern 101 not recognized");
    }

    #[test]
    fn b03_grants_are_mutually_exclusive() {
        let n = b03_style();
        let sim = CompiledSim::new(&n);
        let tb = Testbench::random(4, 100, 9);
        let trace = sim.run_golden(&tb);
        for t in 0..trace.end() {
            let grants = trace.output_at(t).iter().filter(|&&g| g).count();
            assert!(grants <= 1, "multiple grants at cycle {t}");
        }
    }
}
