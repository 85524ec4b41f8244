//go:build purego

package tensor

// armCap is the highest arm the build lets a process select: the purego tag
// caps it at the pure-Go specification, so every kernel runs its Go arm
// whatever the host supports.
const armCap = armGo
