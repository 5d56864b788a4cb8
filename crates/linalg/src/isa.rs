//! Runtime choice between the two builds of each hot host loop.
//!
//! The loops that carry the host time of a kernel launch (the Jacobi sweeps,
//! [`gemm`](crate::gemm::gemm) and [`gram`](crate::gemm::gram)) are
//! compiled twice from one source by [`twin_kernel!`](crate::twin_kernel):
//! once for the baseline target and, on x86, once with AVX2 enabled.
//! [`Isa::detect`] picks the AVX2 build when the running CPU has it.
//!
//! Both builds return the same bits. The bodies never reassociate a sum and
//! never fuse a multiply with an add (Rust does not contract on its own and
//! AVX2 does not include FMA), so the wider vectors only carry element-wise
//! work whose per-element operations are the same in either build.

/// Which build of a twin host loop runs.
///
/// The AVX2 build can only be selected through [`Isa::detect`], so holding
/// an `Isa` proves the running CPU can execute the build it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The baseline build: runs on every CPU.
    pub const PORTABLE: Isa = Isa { avx2: false };

    /// The widest build the running CPU supports.
    #[inline]
    pub fn detect() -> Isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            Isa {
                avx2: std::is_x86_feature_detected!("avx2"),
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            Isa::PORTABLE
        }
    }

    /// True when this selects the AVX2 build.
    #[inline]
    pub fn is_avx2(self) -> bool {
        self.avx2
    }
}

/// Defines a function whose body is compiled twice, once portable and (on
/// x86) once with AVX2 enabled, and which takes a leading [`Isa`] argument
/// choosing the build that runs.
///
/// ```
/// wsvd_linalg::twin_kernel! {
///     /// Doubles every element.
///     pub fn double(xs: &mut [f64]) {
///         for x in xs.iter_mut() {
///             *x *= 2.0;
///         }
///     }
/// }
/// let mut xs = [1.0, 2.0];
/// double(wsvd_linalg::isa::Isa::detect(), &mut xs);
/// assert_eq!(xs, [2.0, 4.0]);
/// ```
///
/// The body is an `#[inline(always)]` function, so it and every `#[inline]`
/// callee it reaches are generated again inside the AVX2 build.
#[macro_export]
macro_rules! twin_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name(isa: $crate::isa::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if isa.is_avx2() {
                // SAFETY: an `Isa` selects AVX2 only when `Isa::detect` found
                // it on the running CPU.
                return unsafe { avx2($($arg),*) };
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            let _ = isa; // only the portable build exists here
            body($($arg),*)
        }
    };
}
