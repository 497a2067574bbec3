package main

import "math/rand"

// Every input the benchmark feeds the program comes from one of these
// generators, so the same --seed always yields the same operations. Each
// generator draws from its own stream of the seed, so lengthening one
// sequence never shifts another.
const (
	streamKinds   = 1
	streamTenants = 2
	streamChurn   = 3
	streamProbes  = 4
	streamValues  = 5
)

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// kindSequence returns length operation kinds in [0, kinds), drawn as
// back-to-back seeded permutations: every window of `kinds` consecutive
// operations that starts at a multiple of kinds holds each kind once, so
// a run's mix does not depend on when the timer stops.
func kindSequence(seed int64, kinds, length int) []int {
	r := newRand(seed, streamKinds)
	out := make([]int, 0, length)
	for len(out) < length {
		for _, k := range r.Perm(kinds) {
			if len(out) == length {
				break
			}
			out = append(out, k)
		}
	}
	return out
}

// zipfS is the skew of the tenant popularity distribution. With 32
// tenants on 13 hardware slots it leaves roughly a fifth of requests
// missing the slot cache, so both the hit and the miss-plus-retag paths
// of the key table carry load.
const zipfS = 1.2

// tenantSequence returns length tenant indices in [0, tenants): Zipf(s)
// popularity ranks mapped through a seeded permutation, so which tenants
// are hot changes with the seed but the skew does not.
func tenantSequence(seed int64, tenants, length int) []int {
	r := newRand(seed, streamTenants)
	perm := r.Perm(tenants)
	z := rand.NewZipf(r, zipfS, 1, uint64(tenants-1))
	out := make([]int, length)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// churnSequence returns length churn victims in [0, tenants), uniform.
func churnSequence(seed int64, tenants, length int) []int {
	r := newRand(seed, streamChurn)
	out := make([]int, length)
	for i := range out {
		out[i] = r.Intn(tenants)
	}
	return out
}

// probeSequence returns, for each request, the tenant whose buffer the
// request's cross-tenant probe targets: never the requesting tenant.
func probeSequence(seed int64, requesters []int, tenants int) []int {
	r := newRand(seed, streamProbes)
	out := make([]int, len(requesters))
	for i, own := range requesters {
		out[i] = (own + 1 + r.Intn(tenants-1)) % tenants
	}
	return out
}

// tenantValue is the value tenant i's buffer holds in its gen-th
// incarnation (gen counts re-adds after churn): a splitmix64 hash of the
// seed, the tenant and the generation, so a read that returns another
// tenant's or a stale incarnation's word is caught.
func tenantValue(seed int64, i, gen int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)<<32 + uint64(gen) + streamValues
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
