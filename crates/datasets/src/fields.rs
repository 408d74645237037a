//! Seeded synthetic field generators.
//!
//! All generators are built on random-phase spectral synthesis: a sum of
//! cosine modes with wavenumbers drawn across log-spaced shells and
//! amplitudes following a configurable power law. Slope ≈ −5/3 mimics the
//! Kolmogorov inertial range of JHTDB-like turbulence; steeper slopes give
//! the smoother LETKF/ISABEL-like fields; post-maps (exp, tanh layering,
//! vortex swirl) add the dataset-specific structure.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of one spectral synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSpec {
    /// Grid extents (1–3 dims).
    pub shape: Vec<usize>,
    /// Number of random Fourier modes.
    pub modes: usize,
    /// Spectral amplitude slope `A(k) ∝ k^slope` (e.g. −5/3 − 1 for
    /// turbulence-like velocity components).
    pub slope: f64,
    /// Minimum and maximum wavenumber (cycles per domain).
    pub k_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl FieldSpec {
    /// Turbulence-like spec over `shape`.
    pub fn turbulent(shape: &[usize], seed: u64) -> Self {
        FieldSpec {
            shape: shape.to_vec(),
            modes: 96,
            slope: -5.0 / 3.0,
            k_range: (1.0, 32.0),
            seed,
        }
    }

    /// Smooth large-scale spec (weather/climate-like).
    pub fn smooth(shape: &[usize], seed: u64) -> Self {
        FieldSpec {
            shape: shape.to_vec(),
            modes: 48,
            slope: -3.0,
            k_range: (1.0, 12.0),
            seed,
        }
    }
}

struct Mode {
    k: [f64; 3],
    phase: f64,
    amp: f64,
}

fn draw_modes(spec: &FieldSpec) -> Vec<Mode> {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let nd = spec.shape.len();
    let (k_lo, k_hi) = spec.k_range;
    let mut modes = Vec::with_capacity(spec.modes);
    for _ in 0..spec.modes {
        // Log-uniform shell radius, isotropic direction.
        let k_mag = k_lo * (k_hi / k_lo).powf(rng.gen::<f64>());
        let mut dir = [0.0f64; 3];
        loop {
            let mut norm = 0.0;
            for d in dir.iter_mut().take(nd) {
                *d = rng.gen::<f64>() * 2.0 - 1.0;
                norm += *d * *d;
            }
            if norm > 1e-6 && norm <= 1.0 {
                let inv = norm.sqrt().recip();
                for d in dir.iter_mut().take(nd) {
                    *d *= inv;
                }
                break;
            }
        }
        let k = [dir[0] * k_mag, dir[1] * k_mag, dir[2] * k_mag];
        modes.push(Mode {
            k,
            phase: rng.gen::<f64>() * std::f64::consts::TAU,
            amp: k_mag.powf(spec.slope),
        });
    }
    // Normalize so the field variance is O(1) independent of mode count.
    let energy: f64 = modes.iter().map(|m| m.amp * m.amp * 0.5).sum();
    let scale = energy.sqrt().recip();
    for m in &mut modes {
        m.amp *= scale;
    }
    modes
}

/// Synthesize the spectral field described by `spec`, row-major.
pub fn spectral_field(spec: &FieldSpec) -> Vec<f64> {
    let n: usize = spec.shape.iter().product();
    let modes = draw_modes(spec);
    let nd = spec.shape.len();
    let dims = {
        let mut d = [1usize; 3];
        d[..nd].copy_from_slice(&spec.shape);
        d
    };
    let inv = [
        1.0 / dims[0] as f64,
        1.0 / dims[1] as f64,
        1.0 / dims[2] as f64,
    ];
    let mut out = vec![0.0; n];
    hpmdr_rt::map_blocks_mut(&mut out, 1, 4096, |first, part| {
        for (idx, out) in (first..).zip(part) {
            let z = idx % dims[2];
            let y = (idx / dims[2]) % dims[1];
            let x = idx / (dims[1] * dims[2]);
            let pos = [x as f64 * inv[0], y as f64 * inv[1], z as f64 * inv[2]];
            let mut acc = 0.0;
            for m in &modes {
                let phase = std::f64::consts::TAU
                    * (m.k[0] * pos[0] + m.k[1] * pos[1] + m.k[2] * pos[2])
                    + m.phase;
                acc += m.amp * phase.cos();
            }
            *out = acc;
        }
    });
    out
}

/// Lognormal density field (NYX-like baryon density): `ρ0 · exp(σ·g)`.
pub fn lognormal_density(shape: &[usize], seed: u64, sigma: f64, rho0: f64) -> Vec<f64> {
    let mut g = spectral_field(&FieldSpec::turbulent(shape, seed));
    hpmdr_rt::map_blocks_mut(&mut g, 1, 1, |_, part| {
        part.iter_mut().for_each(|v| *v = rho0 * (sigma * *v).exp());
    });
    g
}

/// Mixing-layer field with sharp `tanh` interfaces (Miranda-like density).
pub fn interface_field(shape: &[usize], seed: u64, layers: usize, sharpness: f64) -> Vec<f64> {
    let perturb = spectral_field(&FieldSpec::smooth(shape, seed));
    let n: usize = shape.iter().product();
    let rows = shape[0];
    let row_elems = n / rows.max(1);
    let mut out = vec![0.0; n];
    hpmdr_rt::map_blocks_mut(&mut out, 1, 4096, |first, part| {
        for (idx, out) in (first..).zip(part) {
            let x = (idx / row_elems.max(1)) as f64 / rows as f64;
            let mut v = 1.0;
            for l in 1..=layers {
                let pos = l as f64 / (layers + 1) as f64 + 0.03 * perturb[idx];
                v += 0.5 * ((x - pos) * sharpness).tanh();
            }
            *out = v + 0.02 * perturb[idx];
        }
    });
    out
}

/// Hurricane-like vortex field: swirl magnitude decaying from a moving
/// eye, on top of smooth background flow (ISABEL-like wind speed).
pub fn vortex_field(shape: &[usize], seed: u64) -> Vec<f64> {
    assert!(shape.len() >= 2, "vortex field needs at least 2 dims");
    let background = spectral_field(&FieldSpec::smooth(shape, seed ^ 0x5a5a));
    let n: usize = shape.iter().product();
    let mut dims = [1usize; 3];
    dims[..shape.len()].copy_from_slice(shape);
    // Eye drifts across the last-two dimensions with the leading dim
    // (time/altitude for 100×500×500 ISABEL-like grids).
    let mut out = vec![0.0; n];
    hpmdr_rt::map_blocks_mut(&mut out, 1, 4096, |first, part| {
        for (idx, out) in (first..).zip(part) {
            let z = idx % dims[2];
            let y = (idx / dims[2]) % dims[1];
            let x = idx / (dims[1] * dims[2]);
            let t = x as f64 / dims[0] as f64;
            let ey = 0.35 + 0.3 * t;
            let ez = 0.5 + 0.15 * (t * std::f64::consts::TAU).sin();
            let dy = y as f64 / dims[1] as f64 - ey;
            let dz = z as f64 / dims[2] as f64 - ez;
            let r = (dy * dy + dz * dz).sqrt();
            // Rankine-like swirl profile.
            let rc = 0.05;
            let swirl = if r < rc { r / rc } else { (rc / r).powf(0.6) };
            *out = 30.0 * swirl + 3.0 * background[idx];
        }
    });
    out
}

/// Smooth ensemble-forecast field (LETKF-like): large-scale structure with
/// mild member-dependent perturbations.
pub fn ensemble_field(shape: &[usize], seed: u64, member: u64) -> Vec<f64> {
    let mut base = spectral_field(&FieldSpec::smooth(shape, seed));
    let pert = spectral_field(&FieldSpec::turbulent(shape, seed ^ (member + 1)));
    hpmdr_rt::map_blocks_mut(&mut base, 1, 1, |first, part| {
        for (b, &p) in part.iter_mut().zip(&pert[first..]) {
            *b = 280.0 + 15.0 * *b + 0.8 * p;
        }
    });
    base
}

/// Turbulent velocity component (JHTDB-like): Kolmogorov-sloped spectrum,
/// unit-variance, one seed per component.
pub fn velocity_component(shape: &[usize], seed: u64) -> Vec<f64> {
    spectral_field(&FieldSpec::turbulent(shape, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_field_is_deterministic() {
        let spec = FieldSpec::turbulent(&[16, 16, 16], 42);
        let a = spectral_field(&spec);
        let b = spectral_field(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = spectral_field(&FieldSpec::turbulent(&[512], 1));
        let b = spectral_field(&FieldSpec::turbulent(&[512], 2));
        assert_ne!(a, b);
    }

    #[test]
    fn variance_is_order_one() {
        let f = spectral_field(&FieldSpec::turbulent(&[32, 32, 32], 7));
        let mean: f64 = f.iter().sum::<f64>() / f.len() as f64;
        let var: f64 = f.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / f.len() as f64;
        assert!(var > 0.05 && var < 20.0, "variance {var}");
    }

    #[test]
    fn smooth_spec_is_smoother_than_turbulent() {
        // Mean squared difference of neighbors measures roughness.
        let rough = |f: &[f64]| -> f64 {
            f.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum::<f64>() / (f.len() - 1) as f64
        };
        let t = spectral_field(&FieldSpec::turbulent(&[4096], 3));
        let s = spectral_field(&FieldSpec::smooth(&[4096], 3));
        let (rt, rs) = (rough(&t), rough(&s));
        assert!(rs < rt, "smooth {rs} vs turbulent {rt}");
    }

    #[test]
    fn lognormal_density_is_positive_and_skewed() {
        let d = lognormal_density(&[24, 24, 24], 9, 1.0, 1.0);
        assert!(d.iter().all(|&v| v > 0.0));
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let median = {
            let mut s = d.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        assert!(
            mean > median,
            "lognormal mean {mean} must exceed median {median}"
        );
    }

    #[test]
    fn interface_field_has_sharp_gradients() {
        let f = interface_field(&[64, 16, 16], 5, 3, 120.0);
        let rows = 64;
        let row_elems = 16 * 16;
        let mut max_jump = 0.0f64;
        for x in 0..rows - 1 {
            let a = f[x * row_elems];
            let b = f[(x + 1) * row_elems];
            max_jump = max_jump.max((b - a).abs());
        }
        assert!(
            max_jump > 0.1,
            "expected sharp interface, max jump {max_jump}"
        );
    }

    #[test]
    fn vortex_field_peaks_near_eye() {
        let f = vortex_field(&[4, 64, 64], 11);
        let max = f.iter().cloned().fold(f64::MIN, f64::max);
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        assert!(max > 2.0 * mean.abs().max(1.0), "max {max} mean {mean}");
    }

    #[test]
    fn ensemble_members_are_correlated_but_distinct() {
        let a = ensemble_field(&[32, 32], 1, 0);
        let b = ensemble_field(&[32, 32], 1, 1);
        assert_ne!(a, b);
        // Correlation through the shared base must be strong.
        let mean_a = a.iter().sum::<f64>() / a.len() as f64;
        let mean_b = b.iter().sum::<f64>() / b.len() as f64;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (x, y) in a.iter().zip(&b) {
            cov += (x - mean_a) * (y - mean_b);
            va += (x - mean_a).powi(2);
            vb += (y - mean_b).powi(2);
        }
        let corr = cov / (va.sqrt() * vb.sqrt());
        assert!(corr > 0.8, "correlation {corr}");
    }
}
