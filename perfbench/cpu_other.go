//go:build !amd64

package main

// cpuModel reports no brand string: reading it needs CPUID.
func cpuModel() string { return "unknown" }
