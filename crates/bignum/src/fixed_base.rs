//! Fixed-base exponentiation: BGMW windowing over a precomputed table.
//!
//! When one base is raised to many exponents — a group generator, or a
//! peer's public value reused across a session's base OTs — the squarings
//! of a windowed `pow` can be paid once, at table construction.
//! [`FixedBase`] stores `T_i = base^(16^i)` in Montgomery form for every
//! 4-bit window `i` of the modulus width (Brickell–Gordon–McCurley–Wilson,
//! EUROCRYPT '92). An exponent `e = Σ e_i·16^i` is then evaluated as
//!
//! ```text
//! base^e = Π_{d=1}^{15} B_d^d,   B_d = Π_{i : e_i = d} T_i
//! ```
//!
//! by collecting the table entries into one bucket per digit value and
//! folding the buckets with a running product from the top digit down: one
//! Montgomery product per non-zero window plus at most 28 for the fold, and
//! no squarings. A windowed `pow` of a full-width exponent pays one squaring
//! per bit on top of a product per window.
//!
//! The table holds one entry per window, not one per (window, digit) pair,
//! so it stays at `⌈bits/4⌉` residues — 384 × 192 B = 72 KiB for the
//! 1536-bit RFC 3526 group — and building it costs about one `pow` worth of
//! squarings.

use std::fmt;

use crate::fixed::with_widths;
use crate::{AutoMontgomery, BigUint, FixedUint, Montgomery, MontgomeryCtx};

/// Window width in bits.
const WINDOW: usize = 4;
/// Number of non-zero digit values a window can take.
const DIGITS: usize = (1 << WINDOW) - 1;

/// The Montgomery-domain operations table construction and evaluation
/// need. Both engines implement it, so every width runs the same algorithm.
trait MontDomain: Clone {
    type Elem: Clone;
    fn mont_mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    fn mont_sq(&self, a: &Self::Elem) -> Self::Elem;
    /// Reduces `x` mod n and converts it into Montgomery form.
    fn lift(&self, x: &BigUint) -> Self::Elem;
    /// Converts a Montgomery-form value back to the ordinary domain.
    fn lower(&self, x: &Self::Elem) -> BigUint;
}

impl<const N: usize> MontDomain for MontgomeryCtx<N> {
    type Elem = FixedUint<N>;

    fn mont_mul(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        MontgomeryCtx::mont_mul(self, a, b)
    }

    fn mont_sq(&self, a: &FixedUint<N>) -> FixedUint<N> {
        MontgomeryCtx::mont_sq(self, a)
    }

    fn lift(&self, x: &BigUint) -> FixedUint<N> {
        self.to_mont(&self.reduce(x))
    }

    fn lower(&self, x: &FixedUint<N>) -> BigUint {
        self.from_mont(x).to_biguint()
    }
}

impl MontDomain for Montgomery {
    type Elem = BigUint;

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        Montgomery::mont_mul(self, a, b)
    }

    fn mont_sq(&self, a: &BigUint) -> BigUint {
        Montgomery::mont_mul(self, a, a)
    }

    fn lift(&self, x: &BigUint) -> BigUint {
        self.to_mont(x)
    }

    fn lower(&self, x: &BigUint) -> BigUint {
        self.from_mont(x)
    }
}

/// One engine's context plus the table `T_i = base^(16^i)·R mod n`.
#[derive(Clone)]
struct Table<M: MontDomain> {
    ctx: M,
    entries: Vec<M::Elem>,
}

impl<M: MontDomain> Table<M> {
    fn new(ctx: M, base: &BigUint, windows: usize) -> Self {
        let mut entries = Vec::with_capacity(windows);
        entries.push(ctx.lift(base));
        while entries.len() < windows {
            let mut t = entries[entries.len() - 1].clone();
            for _ in 0..WINDOW {
                t = ctx.mont_sq(&t);
            }
            entries.push(t);
        }
        Table { ctx, entries }
    }

    fn pow(&self, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            // n ≥ 3 is a construction invariant of both engines.
            return BigUint::one();
        }
        let windows = exp.bits().div_ceil(WINDOW);
        if windows > self.entries.len() {
            return self.ladder(exp);
        }
        let limbs = exp.limbs();
        let mut buckets: [Option<M::Elem>; DIGITS] = std::array::from_fn(|_| None);
        for (i, entry) in self.entries[..windows].iter().enumerate() {
            // 64 is a multiple of the window width, so a window never
            // straddles a limb.
            let bit = i * WINDOW;
            let digit = ((limbs[bit / 64] >> (bit % 64)) & DIGITS as u64) as usize;
            if digit != 0 {
                let bucket = &mut buckets[digit - 1];
                *bucket = Some(self.times(bucket.take(), entry));
            }
        }
        // Π_d B_d^d = Π_d (Π_{d' ≥ d} B_d'): the running product over the
        // digits seen so far is multiplied into the accumulator once per
        // digit value.
        let mut running = None;
        let mut acc = None;
        for bucket in buckets.iter().rev() {
            if let Some(b) = bucket {
                running = Some(self.times(running, b));
            }
            if let Some(r) = &running {
                acc = Some(self.times(acc, r));
            }
        }
        let acc = acc.expect("a non-zero exponent has a non-zero window");
        self.ctx.lower(&acc)
    }

    /// `x · y` in Montgomery form, where `None` stands for one.
    fn times(&self, x: Option<M::Elem>, y: &M::Elem) -> M::Elem {
        match x {
            Some(x) => self.ctx.mont_mul(&x, y),
            None => y.clone(),
        }
    }

    /// Square-and-multiply from `T_0`, for exponents wider than the table.
    /// Correct but table-free; group exponents stay within the modulus
    /// width and never take it.
    fn ladder(&self, exp: &BigUint) -> BigUint {
        let base = &self.entries[0];
        let mut acc = base.clone();
        for i in (0..exp.bits() - 1).rev() {
            acc = self.ctx.mont_sq(&acc);
            if exp.bit(i) {
                acc = self.ctx.mont_mul(&acc, base);
            }
        }
        self.ctx.lower(&acc)
    }
}

/// A base with a precomputed BGMW table, for raising that one base to many
/// exponents (see the module docs).
///
/// Built from an [`AutoMontgomery`] and a base; the table runs on the same
/// engine the context selected, fixed-limb or dynamic, so every modulus
/// width evaluates through the same code. The result equals
/// [`AutoMontgomery::pow`] of the base for every exponent, including zero
/// and exponents wider than the table.
#[derive(Clone)]
pub struct FixedBase {
    engine: Engine,
}

macro_rules! fixed_base {
    ($(($variant:ident, $n:literal)),+ $(,)?) => {
        /// The table on the engine [`AutoMontgomery`] picked. Boxed for the
        /// same reason `AutoMontgomery`'s contexts are.
        #[derive(Clone)]
        enum Engine {
            $($variant(Box<Table<MontgomeryCtx<$n>>>),)+
            Dynamic(Box<Table<Montgomery>>),
        }

        impl FixedBase {
            /// Builds the table for `base` (reduced mod n) with one entry
            /// per 4-bit window of the modulus width. Costs about one `pow`
            /// of squarings.
            pub fn new(mont: &AutoMontgomery, base: &BigUint) -> Self {
                let windows = mont.modulus().bits().div_ceil(WINDOW);
                let engine = match mont {
                    $(AutoMontgomery::$variant(ctx) => Engine::$variant(Box::new(
                        Table::new((**ctx).clone(), base, windows),
                    )),)+
                    AutoMontgomery::Dynamic(m) => {
                        Engine::Dynamic(Box::new(Table::new(m.clone(), base, windows)))
                    }
                };
                FixedBase { engine }
            }

            /// `base^exp mod n`: one Montgomery product per non-zero 4-bit
            /// window of `exp` plus at most 28, and no squarings, for
            /// exponents up to [`FixedBase::windows`]` × 4` bits.
            pub fn pow(&self, exp: &BigUint) -> BigUint {
                match &self.engine {
                    $(Engine::$variant(t) => t.pow(exp),)+
                    Engine::Dynamic(t) => t.pow(exp),
                }
            }

            /// Number of table entries: the 4-bit windows the table covers.
            pub fn windows(&self) -> usize {
                match &self.engine {
                    $(Engine::$variant(t) => t.entries.len(),)+
                    Engine::Dynamic(t) => t.entries.len(),
                }
            }
        }
    };
}

with_widths!(fixed_base);

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("windows", &self.windows())
            .finish_non_exhaustive()
    }
}
