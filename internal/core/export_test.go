package core

// FitMemoLen returns the number of GP fits memoized on w.
func FitMemoLen(w *Workload) int {
	w.fits.mu.Lock()
	defer w.fits.mu.Unlock()
	return len(w.fits.regs)
}
