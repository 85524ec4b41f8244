//go:build !purego

package tensor

// armCap is the highest arm the build lets a process select: without the
// purego tag, whatever the host supports (cpuLevel).
const armCap = armAVX512
