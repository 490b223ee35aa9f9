package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// A driver's run may touch nothing outside its checkout, and on a disk
// wal-small measures the device: run-to-run spread of its fsyncs is
// 20-35 % here, against 3 % on a memory filesystem. So the program runs
// itself once more in a mount namespace of its own and mounts a tmpfs
// over the WAL directory: the path stays inside the checkout, the bytes
// stay in memory, and the mount is invisible to every other process and
// gone when this one exits.

const tmpfsEnv = "SODA_BENCH_PRIVATE_TMPFS"

// runOnPrivateTmpfs reports ran = true when a child in its own mount
// namespace did the whole run, with the child's exit code. In that
// child, and wherever the kernel refuses the namespace or the mount, it
// reports false and the caller carries on in this process.
func runOnPrivateTmpfs(dir string) (code int, ran bool) {
	if os.Getenv(tmpfsEnv) != "" {
		if err := syscall.Mount("tmpfs", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "mode=0755"); err != nil {
			fmt.Fprintf(os.Stderr, "bench: no tmpfs over %s (%v); the WAL goes to the disk\n", dir, err)
		}
		return 0, false
	}
	exe, err := os.Executable()
	if err != nil || os.MkdirAll(dir, 0o755) != nil {
		return 0, false
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(), tmpfsEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	// A user namespace lets an unprivileged user own the mount namespace;
	// inherited mounts become slaves in it, so the tmpfs cannot propagate
	// out.
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
	}
	if err := cmd.Start(); err != nil {
		return 0, false
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, true
	case errors.As(err, &exit):
		return exit.ExitCode(), true
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1, true
}
