package replay

func SeekStore() {}
