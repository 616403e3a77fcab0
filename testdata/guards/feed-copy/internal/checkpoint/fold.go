package checkpoint

func (p *FeedPlan) Feed() {}
