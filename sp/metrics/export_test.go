package metrics

// CollectHooks returns how many collect hooks reg holds.
func CollectHooks(reg *Registry) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.collects)
}
