//go:build !linux

package main

// runOnPrivateTmpfs needs Linux mount namespaces; elsewhere the WAL
// goes to the directory as it is.
func runOnPrivateTmpfs(string) (code int, ran bool) { return 0, false }
