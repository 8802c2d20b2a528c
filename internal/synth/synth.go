// Package synth generates the synthetic and proxy datasets used by the
// paper's evaluation: the sinusoidal size/complexity study fields, and
// deterministic stand-ins for the scientific datasets (JET combustion
// mixture fraction, Rayleigh-Taylor density, hydrogen atom probability
// density) that are not redistributable. Every generator is a pure
// function of its parameters, so all experiments are reproducible.
package synth

import (
	"math"
	"math/rand"

	"parms/internal/grid"
)

// Sinusoid generates the paper's synthetic study field (section VI-B): a
// 3D product of sinusoids on an n³ grid. features is the paper's
// "complexity": how many times the sine reaches ±1 along one side of the
// volume. The number of critical points grows cubically with features.
func Sinusoid(n int, features float64) *grid.Volume {
	return SinusoidDims(grid.Dims{n, n, n}, features)
}

// SinusoidDims generates the sinusoidal field on an arbitrary grid; the
// feature count applies per side proportionally to each dimension.
//
// Samples are taken at half-sample offsets (t = (x+1/2)/n), so the
// sine's zeros and extrema never coincide with lattice points: a
// grid-aligned sampling would make every zero-crossing plane of the
// product exactly 0 over 2f whole planes per axis, turning most of the
// domain into one gigantic plateau — a degenerate function unlike the
// generic fields the paper studies.
func SinusoidDims(dims grid.Dims, features float64) *grid.Volume {
	v := grid.NewVolume(dims)
	// sin(π·f·t) over t ∈ [0, 1] attains |1| exactly f times (at
	// t = (k+1/2)/f), matching the paper's definition of complexity.
	for z := 0; z < dims[2]; z++ {
		fz := math.Sin(math.Pi * features * (float64(z) + 0.5) / float64(dims[2]))
		for y := 0; y < dims[1]; y++ {
			fy := math.Sin(math.Pi * features * (float64(y) + 0.5) / float64(dims[1]))
			for x := 0; x < dims[0]; x++ {
				fx := math.Sin(math.Pi * features * (float64(x) + 0.5) / float64(dims[0]))
				v.Set(x, y, z, float32(fx*fy*fz))
			}
		}
	}
	return v
}

// Ramp generates a monotone field f = x + 2y + 4z with exactly one
// minimum and one maximum — the simplest possible topology, used by
// correctness tests.
func Ramp(dims grid.Dims) *grid.Volume {
	v := grid.NewVolume(dims)
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				v.Set(x, y, z, float32(x)+2*float32(y)+4*float32(z))
			}
		}
	}
	return v
}

// Torus generates the signed distance field of a solid torus centred in
// an n³ grid (major radius 0.3 and minor radius 0.12 of the domain),
// modulated by a gentle angular ripple so the level sets carry a
// handful of saddles in deterministic positions. Unlike the sinusoid
// its critical points are sparse and its V-paths long and curved, which
// exercises the path-compression sweeps on deep chains rather than many
// shallow ones.
func Torus(n int) *grid.Volume {
	dims := grid.Dims{n, n, n}
	v := grid.NewVolume(dims)
	for z := 0; z < n; z++ {
		pz := (float64(z)+0.5)/float64(n) - 0.5
		for y := 0; y < n; y++ {
			py := (float64(y)+0.5)/float64(n) - 0.5
			for x := 0; x < n; x++ {
				px := (float64(x)+0.5)/float64(n) - 0.5
				// Distance from the torus ring in the z=0 plane.
				q := math.Hypot(px, py) - 0.3
				d := math.Hypot(q, pz) - 0.12
				ripple := 0.03 * math.Cos(5*math.Atan2(py, px))
				v.Set(x, y, z, float32(d+ripple))
			}
		}
	}
	return v
}

// Random generates uniform noise in [0, 1), seeded; the worst case for
// critical point counts.
func Random(dims grid.Dims, seed int64) *grid.Volume {
	v := grid.NewVolume(dims)
	rng := rand.New(rand.NewSource(seed))
	for i := range v.Data {
		v.Data[i] = rng.Float32()
	}
	return v
}

// Hydrogen generates a proxy for the paper's Figure 4 dataset: the
// spatial probability density of a hydrogen atom in a strong magnetic
// field. The field has three dominant maxima along the z axis and a
// toroidal ridge around it, embedded in a constant (zero) background —
// exactly the stability structure the paper discusses: three stable
// maxima connected in a line, a stable loop arc whose maximum location
// is unstable, and large flat regions with unstable critical points.
// Values are scaled to the byte range [0, 255] like the original
// byte-valued dataset.
func Hydrogen(n int) *grid.Volume {
	dims := grid.Dims{n, n, n}
	v := grid.NewVolume(dims)
	c := float64(n-1) / 2
	scale := float64(n-1) / 2
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				// Normalized coordinates in [-1, 1].
				nx := (float64(x) - c) / scale
				ny := (float64(y) - c) / scale
				nz := (float64(z) - c) / scale
				r2 := nx*nx + ny*ny
				// Three lobes along z.
				lobes := gauss(nx, ny, nz, 0, 0, 0, 0.18) +
					0.85*gauss(nx, ny, nz, 0, 0, 0.45, 0.15) +
					0.85*gauss(nx, ny, nz, 0, 0, -0.45, 0.15)
				// Toroidal ridge of radius 0.55 in the z = 0 plane.
				rd := math.Sqrt(r2) - 0.55
				tor := 0.55 * math.Exp(-(rd*rd+nz*nz*1.4)/(0.06))
				f := lobes + tor
				v.Set(x, y, z, float32(math.Round(255*clamp01(f))))
			}
		}
	}
	v.DType = grid.U8
	return v
}

// Jet generates a proxy for the JET mixture fraction dataset (section
// VI-D1): a temporally-evolving turbulent CO/H₂ jet flame. The field is
// a planar-jet mixture-fraction envelope perturbed by deterministic
// random-phase turbulent modes, producing the abundant small minima
// ("dissipation elements") inside the jet core that drive the paper's
// worst-case full-merge benchmark. Default paper-shaped dims keep the
// 768×896×512 aspect ratio at reduced scale.
func Jet(dims grid.Dims, seed int64) *grid.Volume {
	v := grid.NewVolume(dims)
	rng := rand.New(rand.NewSource(seed))
	const nModes = 48
	type mode struct {
		kx, ky, kz float64
		phase      float64
		amp        float64
	}
	modes := make([]mode, nModes)
	for i := range modes {
		// Wavenumbers 2..14 with a -5/3-like energy rolloff.
		k := 2 + 12*rng.Float64()
		theta := 2 * math.Pi * rng.Float64()
		phi := math.Acos(2*rng.Float64() - 1)
		modes[i] = mode{
			kx:    k * math.Sin(phi) * math.Cos(theta),
			ky:    k * math.Sin(phi) * math.Sin(theta),
			kz:    k * math.Cos(phi),
			phase: 2 * math.Pi * rng.Float64(),
			amp:   math.Pow(k, -5.0/3.0),
		}
	}
	for z := 0; z < dims[2]; z++ {
		nz := float64(z) / float64(dims[2]-1)
		for y := 0; y < dims[1]; y++ {
			ny := float64(y)/float64(dims[1]-1) - 0.5
			// Jet core envelope: mixture fraction high in the center
			// plane, decaying outward.
			env := math.Exp(-(ny * ny) / (2 * 0.12 * 0.12))
			for x := 0; x < dims[0]; x++ {
				nx := float64(x) / float64(dims[0]-1)
				turb := 0.0
				for _, m := range modes {
					turb += m.amp * math.Sin(2*math.Pi*(m.kx*nx+m.ky*ny+m.kz*nz)+m.phase)
				}
				f := env * (1 + 0.45*turb)
				v.Set(x, y, z, float32(f))
			}
		}
	}
	return v
}

// RayleighTaylor generates a proxy for the Rayleigh-Taylor mixing
// density field (section VI-D2): heavy fluid above light fluid with a
// perturbed interface developing rising bubbles and falling spikes, plus
// multiscale noise confined to the mixing layer. The topology class
// matches the original: a slab of high feature density between two
// near-constant half-spaces.
func RayleighTaylor(dims grid.Dims, seed int64) *grid.Volume {
	v := grid.NewVolume(dims)
	rng := rand.New(rand.NewSource(seed))
	const nModes = 24
	type mode2 struct {
		kx, ky, phase, amp float64
	}
	iface := make([]mode2, nModes)
	for i := range iface {
		k := 3 + 10*rng.Float64()
		theta := 2 * math.Pi * rng.Float64()
		iface[i] = mode2{
			kx:    k * math.Cos(theta),
			ky:    k * math.Sin(theta),
			phase: 2 * math.Pi * rng.Float64(),
			amp:   0.35 / k,
		}
	}
	const nNoise = 40
	type mode3 struct {
		kx, ky, kz, phase, amp float64
	}
	noise := make([]mode3, nNoise)
	for i := range noise {
		k := 6 + 22*rng.Float64()
		theta := 2 * math.Pi * rng.Float64()
		phi := math.Acos(2*rng.Float64() - 1)
		noise[i] = mode3{
			kx:    k * math.Sin(phi) * math.Cos(theta),
			ky:    k * math.Sin(phi) * math.Sin(theta),
			kz:    k * math.Cos(phi),
			phase: 2 * math.Pi * rng.Float64(),
			amp:   math.Pow(k, -1.2),
		}
	}
	// Interface height perturbation, once per (x, y) column.
	etas := make([]float64, dims[0]*dims[1])
	for y := 0; y < dims[1]; y++ {
		ny := float64(y) / float64(dims[1]-1)
		for x := 0; x < dims[0]; x++ {
			nx := float64(x) / float64(dims[0]-1)
			eta := 0.0
			for _, m := range iface {
				eta += m.amp * math.Sin(2*math.Pi*(m.kx*nx+m.ky*ny)+m.phase)
			}
			etas[y*dims[0]+x] = eta * 0.25
		}
	}
	for z := 0; z < dims[2]; z++ {
		nz := float64(z)/float64(dims[2]-1) - 0.5
		for y := 0; y < dims[1]; y++ {
			ny := float64(y) / float64(dims[1]-1)
			for x := 0; x < dims[0]; x++ {
				nx := float64(x) / float64(dims[0]-1)
				eta := etas[y*dims[0]+x]
				// Density transition across the perturbed interface.
				d := (nz - eta) / 0.08
				rho := math.Tanh(d)
				// Mixing-layer noise, enveloped around the interface.
				envd := nz - eta
				env := math.Exp(-(envd * envd) / (2 * 0.15 * 0.15))
				tn := 0.0
				for _, m := range noise {
					tn += m.amp * math.Sin(2*math.Pi*(m.kx*nx+m.ky*ny+m.kz*nz)+m.phase)
				}
				v.Set(x, y, z, float32(rho+0.6*env*tn))
			}
		}
	}
	return v
}

// PorousSolid generates a signed-distance-like field of a porous
// material (the Figure 1 workload): a deterministic level-set of
// overlapping blobs whose complement forms filament structures traced by
// 2-saddle–maximum arcs of the MS complex.
func PorousSolid(n int, seed int64) *grid.Volume {
	dims := grid.Dims{n, n, n}
	v := grid.NewVolume(dims)
	rng := rand.New(rand.NewSource(seed))
	const nBlobs = 60
	type blob struct{ cx, cy, cz, r float64 }
	blobs := make([]blob, nBlobs)
	for i := range blobs {
		blobs[i] = blob{
			cx: rng.Float64(),
			cy: rng.Float64(),
			cz: rng.Float64(),
			r:  0.08 + 0.10*rng.Float64(),
		}
	}
	for z := 0; z < n; z++ {
		nz := float64(z) / float64(n-1)
		for y := 0; y < n; y++ {
			ny := float64(y) / float64(n-1)
			for x := 0; x < n; x++ {
				nx := float64(x) / float64(n-1)
				// Signed distance to the union of blobs (positive
				// outside the material: the pore space).
				d := math.Inf(1)
				for _, b := range blobs {
					dx, dy, dz := nx-b.cx, ny-b.cy, nz-b.cz
					dist := math.Sqrt(dx*dx+dy*dy+dz*dz) - b.r
					if dist < d {
						d = dist
					}
				}
				v.Set(x, y, z, float32(d))
			}
		}
	}
	return v
}

func gauss(x, y, z, cx, cy, cz, sigma float64) float64 {
	dx, dy, dz := x-cx, y-cy, z-cz
	return math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * sigma * sigma))
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Clustered generates a deliberately load-imbalanced field: sinusoidal
// features confined to the octant nearest the origin, with a smooth ramp
// elsewhere. Blocks covering the feature octant cost far more to process
// than the rest — the workload for the load-balancing study the paper
// leaves as an open question (section IV-A).
func Clustered(n int, features float64) *grid.Volume {
	dims := grid.Dims{n, n, n}
	v := grid.NewVolume(dims)
	for z := 0; z < n; z++ {
		nz := float64(z) / float64(n-1)
		for y := 0; y < n; y++ {
			ny := float64(y) / float64(n-1)
			for x := 0; x < n; x++ {
				nx := float64(x) / float64(n-1)
				// Smooth indicator of the near-origin octant.
				w := sigmoid(12*(0.5-nx)) * sigmoid(12*(0.5-ny)) * sigmoid(12*(0.5-nz))
				osc := math.Sin(2*math.Pi*features*nx) *
					math.Sin(2*math.Pi*features*ny) *
					math.Sin(2*math.Pi*features*nz)
				ramp := 0.2 * (nx + ny + nz)
				v.Set(x, y, z, float32(w*osc+ramp))
			}
		}
	}
	return v
}

func sigmoid(t float64) float64 { return 1 / (1 + math.Exp(-t)) }
