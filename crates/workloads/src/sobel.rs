//! `sobel` — edge detection filter, parallelized OpenMP-style over rows.
//!
//! The classic 3x3 Sobel operator: per pixel, two convolutions (Gx, Gy)
//! and a magnitude. Compute-dense relative to its byte traffic (8-bit
//! pixels), so it scales near-linearly to high core counts — the paper's
//! Figure 10 shows sobel scaling "all the way up to 64 cores".

use std::sync::Arc;

use sprint_archsim::isa::Op;
use sprint_archsim::machine::Machine;
use sprint_archsim::memmap::{AddressSpace, Region};
use sprint_archsim::program::{Inbox, Kernel, KernelStatus, ThreadId};

use crate::data::{textured_image, GrayImage};
use crate::emit;
use crate::partition::chunk_range;
use crate::suite::{InputSize, Workload};

/// Computes the Sobel gradient magnitude image (saturating u8).
pub fn sobel_native(img: &GrayImage) -> Vec<u8> {
    let (w, h) = (img.width, img.height);
    let mut out = vec![0u8; w * h];
    for y in 1..h.saturating_sub(1) {
        for x in 1..w.saturating_sub(1) {
            let p = |dx: isize, dy: isize| -> i32 {
                i32::from(img.at((x as isize + dx) as usize, (y as isize + dy) as usize))
            };
            let gx = -p(-1, -1) - 2 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2 * p(1, 0) + p(1, 1);
            let gy = -p(-1, -1) - 2 * p(0, -1) - p(1, -1) + p(-1, 1) + 2 * p(0, 1) + p(1, 1);
            let mag = ((gx * gx + gy * gy) as f64).sqrt() as i32;
            out[y * w + x] = mag.min(255) as u8;
        }
    }
    out
}

struct SobelData {
    img: Arc<GrayImage>,
    input: Region,
    output: Region,
}

/// The sobel workload: image + simulated placement.
pub struct SobelWorkload {
    data: Arc<SobelData>,
    checksum: u64,
}

impl std::fmt::Debug for SobelWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SobelWorkload")
            .field("width", &self.data.img.width)
            .field("height", &self.data.img.height)
            .finish_non_exhaustive()
    }
}

impl SobelWorkload {
    /// Builds the workload at a standard input size.
    pub fn new(size: InputSize) -> Self {
        // A = 0.5 MP, scaling area by 2x per class up to 4 MP (Figure 8
        // sweeps further via `with_dims`).
        let scale = (size.scale() as f64).sqrt();
        let w = (800.0 * scale) as usize;
        let h = (640.0 * scale) as usize;
        Self::with_dims(w, h, 0xE0_5E1)
    }

    /// Builds the workload for an arbitrary image size (Figure 8's
    /// megapixel sweep).
    pub fn with_dims(width: usize, height: usize, seed: u64) -> Self {
        let img = Arc::new(textured_image(width, height, seed));
        let native = sobel_native(&img);
        let checksum = native.iter().map(|&v| u64::from(v)).sum();
        let mut mem = AddressSpace::new();
        let input = mem.alloc_bytes((width * height) as u64);
        let output = mem.alloc_bytes((width * height) as u64);
        Self {
            data: Arc::new(SobelData { img, input, output }),
            checksum,
        }
    }

    /// Checksum of the native result (regression/verification hook).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Image megapixels.
    pub fn megapixels(&self) -> f64 {
        (self.data.img.width * self.data.img.height) as f64 / 1e6
    }
}

impl Workload for SobelWorkload {
    fn name(&self) -> &'static str {
        "sobel"
    }

    fn setup(&self, machine: &mut Machine, threads: usize) {
        for t in 0..threads {
            machine.spawn(Box::new(SobelKernel::new(self.data.clone(), t, threads)));
        }
    }

    fn work_units(&self) -> u64 {
        (self.data.img.width * self.data.img.height) as u64
    }
}

/// Per-pixel instruction mix: the two 3x3 convolutions and the magnitude.
const FP_PER_PX: u64 = 8;
const INT_PER_PX: u64 = 6;
const BR_PER_PX: u64 = 2;

struct SobelKernel {
    data: Arc<SobelData>,
    rows: std::ops::Range<usize>,
    y: usize,
    x: usize,
    finished: bool,
}

impl SobelKernel {
    fn new(data: Arc<SobelData>, tid: usize, threads: usize) -> Self {
        let h = data.img.height;
        let inner = h.saturating_sub(2);
        let rows = chunk_range(inner, threads, tid);
        let rows = rows.start + 1..rows.end + 1;
        Self {
            data,
            y: rows.start,
            rows,
            x: 1,
            finished: false,
        }
    }
}

impl Kernel for SobelKernel {
    fn step(&mut self, _tid: ThreadId, _inbox: &mut Inbox, out: &mut Vec<Op>) -> KernelStatus {
        if self.finished {
            return KernelStatus::Done;
        }
        if self.y >= self.rows.end {
            // Join the end-of-kernel barrier once.
            out.push(Op::Barrier);
            self.finished = true;
            return KernelStatus::Done;
        }
        let w = self.data.img.width;
        // Process up to 4 blocks of 64 output pixels per step.
        for _ in 0..4 {
            if self.y >= self.rows.end {
                break;
            }
            let x0 = self.x;
            let x1 = (x0 + 64).min(w - 1);
            let px = (x1 - x0) as u64;
            // Memory: the three input rows' spans plus the output span.
            for dy in [-1i64, 0, 1] {
                let row = (self.y as i64 + dy) as u64;
                emit::load_span(out, self.data.input, row * w as u64 + x0 as u64 - 1, px + 2);
            }
            emit::store_span(out, self.data.output, (self.y * w + x0) as u64, px);
            emit::element_mix(out, px, FP_PER_PX, INT_PER_PX, BR_PER_PX);
            self.x = x1;
            if self.x >= w - 1 {
                self.x = 1;
                self.y += 1;
            }
        }
        KernelStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_archsim::config::MachineConfig;

    #[test]
    fn native_sobel_finds_rectangle_edges() {
        // A flat image with one bright rectangle: edges exactly at the
        // rectangle border.
        let mut img = GrayImage {
            width: 32,
            height: 32,
            pixels: vec![10; 32 * 32],
        };
        for y in 8..16 {
            for x in 8..24 {
                img.pixels[y * 32 + x] = 200;
            }
        }
        let out = sobel_native(&img);
        assert!(out[9 * 32 + 8] > 100, "left edge must respond");
        assert_eq!(out[12 * 32 + 12], 0, "interior is flat");
        assert_eq!(out[2 * 32 + 2], 0, "background is flat");
    }

    #[test]
    fn workload_runs_and_covers_all_pixels() {
        let w = SobelWorkload::with_dims(128, 96, 1);
        let mut m = Machine::new(MachineConfig::hpca().with_cores(4));
        w.setup(&mut m, 4);
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // Inner pixels: (w-2) x (h-2); each emits one store per 64-px block.
        let stores = m.stats().stores;
        assert!(stores > 0);
        // All four threads hit the final barrier.
        assert_eq!(m.stats().barrier_episodes, 1);
    }

    #[test]
    fn parallel_speedup_is_near_linear() {
        let elapsed = |threads: usize| -> u64 {
            let w = SobelWorkload::with_dims(256, 192, 1);
            let mut m = Machine::new(MachineConfig::hpca().with_cores(threads));
            w.setup(&mut m, threads);
            while !m.all_done() {
                m.run_window(1_000_000);
            }
            m.time_ps()
        };
        let t1 = elapsed(1);
        let t4 = elapsed(4);
        let speedup = t1 as f64 / t4 as f64;
        assert!(
            speedup > 3.0,
            "sobel must scale near-linearly: {speedup:.2}"
        );
    }

    #[test]
    fn checksum_is_deterministic() {
        let a = SobelWorkload::with_dims(100, 80, 9).checksum();
        let b = SobelWorkload::with_dims(100, 80, 9).checksum();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }
}
