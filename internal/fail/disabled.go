//go:build !dlzfail

package fail

// Enabled reports whether the failpoint layer is compiled in. In the default
// build it is the constant false: every call site guards its Inject with
// `if fail.Enabled { ... }`, so the compiler's constant-branch elimination
// removes the failpoints entirely — no branch, no call, no registry. The
// zero-alloc hot-path tests run against this build and would catch any
// regression of that guarantee.
const Enabled = false

// Inject is a no-op in the default build; it exists so guarded call sites
// still type-check.
func Inject(string) error { return nil }

// SetSeed is a no-op in the default build.
func SetSeed(uint64) {}

// Arm is a no-op in the default build.
func Arm(string, Policy) {}

// Disarm is a no-op in the default build.
func Disarm(string) {}

// Release is a no-op in the default build.
func Release(string) {}

// Reset is a no-op in the default build.
func Reset() {}

// Hits always reports 0 in the default build.
func Hits(string) uint64 { return 0 }

// Fires always reports 0 in the default build.
func Fires(string) uint64 { return 0 }
