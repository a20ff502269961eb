// Fixture for the runerror rule: discarded ppm.Run errors.
package runerror

import (
	"log"

	"ppm"
)

func Program() error {
	ppm.Run(ppm.Options{Nodes: 2}, prog) // want `error discarded`

	rep, _ := ppm.Run(ppm.Options{Nodes: 2}, prog) // want `error assigned to _`
	_ = rep

	go ppm.Run(ppm.Options{Nodes: 2}, prog) // want `error discarded`

	// ok: error consumed.
	if _, err := ppm.Run(ppm.Options{Nodes: 2}, prog); err != nil {
		return err
	}
	_, err := ppm.Run(ppm.Options{Nodes: 2}, prog)
	return err
}

func prog(rt *ppm.Runtime) {}

// Forwarders: each returns the error of the ppm.Run it calls, so a
// caller that drops a forwarder's error drops Run's.
func forwardVar() error {
	var err error
	_, err = ppm.Run(ppm.Options{Nodes: 2}, prog)
	return err
}

func forwardAfterPrep() error {
	err := prep()
	if err != nil {
		return err
	}
	_, err = ppm.Run(ppm.Options{Nodes: 2}, prog)
	return err
}

func forwardEarly() error {
	_, err := ppm.Run(ppm.Options{Nodes: 2}, prog)
	if err != nil {
		return err
	}
	return nil
}

// logsRun logs Run's error and returns prep's: dropping its error
// drops nothing of Run's.
func logsRun() error {
	_, err := ppm.Run(ppm.Options{Nodes: 2}, prog)
	if err != nil {
		log.Print(err)
	}
	err = prep()
	return err
}

func prep() error { return nil }

func Forwarded() {
	forwardVar()       // want `error discarded`
	forwardAfterPrep() // want `error discarded`
	forwardEarly()     // want `error discarded`
	logsRun()
}
